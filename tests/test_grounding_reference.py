"""Fuzzy grounding against brute-force references.

The references below are the plain code the fast paths replace:

* ``reference_osa_similarity`` fills the whole optimal-string-alignment
  matrix; the banded :func:`osa_similarity_within` must return exactly its
  value whenever that value reaches the threshold, and ``None`` otherwise;
* ``reference_score_against`` re-tokenises and re-trigrams the phrase and
  the node's label and comment on every call and compares every pair of
  phrase token and label token; ``find_tables`` and ``find_columns``, which
  read profiles built once, must return the same nodes, scores,
  ``matched_on`` and order.

A counting wrapper (not a timer) checks that ``ground_question`` looks
each distinct n-gram up at most once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)
from repro.kg import SchemaKnowledgeGraph
from repro.kg.schema_kg import CDA_COLUMN, CDA_TABLE, SchemaMatch, _Profile
from repro.kg.vocabulary import (
    DomainVocabulary,
    VocabularyTerm,
    edit_similarity,
    edit_similarity_at_least,
    osa_similarity_within,
    token_overlap,
    trigram_similarity,
)
from repro.nl.nl2sql import GroundedSemanticParser, _singular_ngrams, _singularise
from repro.vector.embedding import tokenize_text
from tests.conftest import build_employees_db

# -- the references -----------------------------------------------------------------


def reference_osa_similarity(a: str, b: str) -> float:
    """Full-matrix OSA similarity of two already lower-cased strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                rows[i][j] = min(rows[i][j], rows[i - 2][j - 2] + 1)
    return 1.0 - rows[len(a)][len(b)] / max(len(a), len(b))


def reference_score_against(
    kg: SchemaKnowledgeGraph, phrase: str, node: str
) -> tuple[float, str]:
    """Score ``phrase`` against ``node``, re-deriving everything per call."""
    label = kg.ontology.label(node)
    comment = kg.ontology.comment(node) or ""
    best = max(token_overlap(phrase, label), trigram_similarity(phrase, label))
    matched_on = "label"
    for phrase_token in tokenize_text(phrase):
        for label_token in tokenize_text(label):
            if min(len(phrase_token), len(label_token)) < 4:
                continue
            similarity = reference_osa_similarity(
                phrase_token.lower(), label_token.lower()
            )
            if similarity >= 0.7 and 0.9 * similarity > best:
                best = 0.9 * similarity
                matched_on = "label"
    if comment:
        comment_score = 0.9 * token_overlap(phrase, comment)
        if comment_score > best:
            best = comment_score
            matched_on = "comment"
    return best, matched_on


def reference_find(
    kg: SchemaKnowledgeGraph,
    phrase: str,
    class_name: str,
    min_score: float,
    table: str | None = None,
) -> list[SchemaMatch]:
    matches = []
    for node in kg.ontology.instances_of(class_name):
        qualified = node.split(":", 1)[1]
        if class_name == CDA_TABLE:
            node_table, column = qualified, None
        else:
            node_table, column = qualified.rsplit(".", 1)
            if table is not None and node_table.lower() != table.lower():
                continue
        score, matched_on = reference_score_against(kg, phrase, node)
        if score >= min_score:
            matches.append(SchemaMatch(node, node_table, column, score, matched_on))
    return sorted(matches, key=lambda match: (-match.score, match.node))


# -- the banded kernel --------------------------------------------------------------

#: Small alphabets make near-misses and transpositions common; "İ" and "ẞ"
#: change length when lower-cased, so the kernel sees the lowered strings.
ALPHABET = "abcdeİẞ é"


@st.composite
def edited_pairs(draw):
    """A string and a copy with random insertions, deletions, substitutions
    and adjacent transpositions."""
    a = draw(st.text(alphabet=ALPHABET, max_size=14))
    b = list(a)
    for _ in range(draw(st.integers(0, 5))):
        edit = draw(st.sampled_from(["insert", "delete", "substitute", "transpose"]))
        position = draw(st.integers(0, len(b)))
        if edit == "insert":
            b.insert(position, draw(st.sampled_from(ALPHABET)))
        elif edit == "delete" and position < len(b):
            del b[position]
        elif edit == "substitute" and position < len(b):
            b[position] = draw(st.sampled_from(ALPHABET))
        elif edit == "transpose" and position + 1 < len(b):
            b[position], b[position + 1] = b[position + 1], b[position]
    return a, "".join(b)


@st.composite
def thresholds(draw, pair):
    """Random thresholds, plus the exact similarity values ``d / longest``
    sits on, where a rounding slip would flip the answer."""
    a, b = pair
    longest = max(len(a.lower()), len(b.lower()), 1)
    return draw(
        st.one_of(
            st.floats(min_value=-0.5, max_value=1.5),
            st.sampled_from([0.0, 0.7, 0.72, 1.0]),
            st.integers(0, longest).map(lambda d: 1.0 - d / longest),
        )
    )


class TestBandedKernel:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_matches_full_matrix(self, data):
        a, b = data.draw(edited_pairs())
        threshold = data.draw(thresholds((a, b)))
        a, b = a.lower(), b.lower()
        want = reference_osa_similarity(a, b)
        got = osa_similarity_within(a, b, threshold)
        assert got == (want if want >= threshold else None)

    @settings(max_examples=300, deadline=None)
    @given(edited_pairs(), st.floats(min_value=0.0, max_value=1.0))
    def test_public_kernels_lowercase_then_band(self, pair, threshold):
        a, b = pair
        want = reference_osa_similarity(a.lower(), b.lower())
        assert edit_similarity(a, b) == want
        assert edit_similarity_at_least(a, b, threshold) == (want >= threshold)

    def test_band_boundary(self):
        # "cepacitu" is two edits from "capacity": 1 - 2/8 = 0.75.
        assert osa_similarity_within("cepacitu", "capacity", 0.75) == 0.75
        assert osa_similarity_within("cepacitu", "capacity", 0.76) is None
        # A transposition is one edit.
        assert osa_similarity_within("caapcity", "capacity", 0.8) == 0.875
        assert osa_similarity_within("", "", 1.0) == 1.0
        assert osa_similarity_within("", "abc", 0.0) == 0.0
        assert osa_similarity_within("abc", "abc", 1.1) is None


# -- schema profiles -----------------------------------------------------------------


def _domain_kg(build) -> SchemaKnowledgeGraph:
    return SchemaKnowledgeGraph(build(seed=3).registry.database.catalog)


@pytest.fixture(scope="module")
def graphs() -> list[SchemaKnowledgeGraph]:
    return [
        SchemaKnowledgeGraph(build_employees_db().catalog),
        _domain_kg(build_swiss_labour_registry),
        _domain_kg(build_ecommerce_registry),
        _domain_kg(build_healthcare_registry),
    ]


def _schema_words(kg: SchemaKnowledgeGraph) -> list[str]:
    words = []
    for node in kg.ontology.instances_of(CDA_TABLE) + kg.ontology.instances_of(CDA_COLUMN):
        words += tokenize_text(kg.ontology.label(node))
        words += tokenize_text(kg.ontology.comment(node) or "")
    return sorted(set(words))


def _typo(draw, word: str) -> str:
    if len(word) < 2:
        return word
    position = draw(st.integers(0, len(word) - 2))
    edit = draw(st.sampled_from(["delete", "transpose", "double", "substitute"]))
    if edit == "delete":
        return word[:position] + word[position + 1 :]
    if edit == "transpose":
        return word[:position] + word[position + 1] + word[position] + word[position + 2 :]
    if edit == "double":
        return word[:position] + word[position] + word[position:]
    return word[:position] + draw(st.sampled_from("aeiost")) + word[position + 1 :]


@st.composite
def phrases(draw, words: list[str]) -> str:
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        word = draw(
            st.one_of(
                st.sampled_from(words),
                st.sampled_from(["the", "of", "per", "how many", "Zürich", "İİ", "--"]),
                st.text(alphabet="abcdeirst_ ", max_size=8),
            )
        )
        parts.append(_typo(draw, word) if draw(st.booleans()) else word)
    return " ".join(parts)


class TestProfiledMatching:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_find_tables_matches_reference(self, graphs, data):
        kg = data.draw(st.sampled_from(graphs))
        phrase = data.draw(phrases(_schema_words(kg)))
        min_score = data.draw(st.sampled_from([0.0, 0.15, 0.3, 0.5]))
        assert kg.find_tables(phrase, min_score=min_score) == reference_find(
            kg, phrase, CDA_TABLE, min_score
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_find_columns_matches_reference(self, graphs, data):
        kg = data.draw(st.sampled_from(graphs))
        phrase = data.draw(phrases(_schema_words(kg)))
        min_score = data.draw(st.sampled_from([0.0, 0.3, 0.5]))
        table = data.draw(st.sampled_from([None, *kg.tables(), "no_such_table"]))
        assert kg.find_columns(
            phrase, table=table, min_score=min_score
        ) == reference_find(kg, phrase, CDA_COLUMN, min_score, table=table)

    def test_typo_and_comment_matches(self, graphs):
        employees = graphs[0]
        for phrase in ["salray", "employes", "departmnet budget", "floor"]:
            for class_name in (CDA_TABLE, CDA_COLUMN):
                find = (
                    employees.find_tables
                    if class_name == CDA_TABLE
                    else employees.find_columns
                )
                got = find(phrase, min_score=0.0)
                assert got == reference_find(employees, phrase, class_name, 0.0)
        assert employees.find_columns("salray")[0].column == "salary"


class TestTypoPairThreshold:
    def test_pair_just_above_the_overlap_score_counts(self, graphs):
        # Token overlap 2999/4000 sits just under 0.9 * sim("salray", "salary")
        # = 0.75, so the typo pair decides the score and must not be pruned.
        shared = frozenset(f"w{i}" for i in range(2999))
        phrase = _Profile(shared | {"salray"}, frozenset(), ("salray",), None)
        others = frozenset(f"x{i}" for i in range(999))
        node = _Profile(shared | others | {"salary"}, frozenset(), ("salary",), None)
        similarity = reference_osa_similarity("salray", "salary")
        assert 2999 / 4000 < 0.9 * similarity
        assert graphs[0]._score_against(phrase, node) == (0.9 * similarity, "label")


class TestQuestionNgrams:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["canton", "cantons", "category", "categories", "bus", "buses",
                 "class", "s", "ies", "the", "of"]
            ),
            max_size=8,
        )
    )
    def test_singular_ngrams_match_singularising_each_ngram(self, tokens):
        # Every distinct 1-3-gram, shortest first, singularised whole; the
        # first n-gram with each singular form is the one kept.
        reference: dict[str, str] = {}
        for size in (1, 2, 3):
            for start in range(len(tokens) - size + 1):
                gram = " ".join(tokens[start : start + size])
                reference.setdefault(_singularise(gram), gram)
        assert list(_singular_ngrams(tokens, 3).items()) == list(reference.items())

    def test_first_typo_mention_names_the_table(self):
        parser = GroundedSemanticParser(_domain_kg(build_swiss_labour_registry))
        for first, second in (("cantosn", "cantonn"), ("cantonn", "cantosn")):
            outcome = parser.parse(f"show the region and population in {first} {second}")
            assert f"table 'cantons' via fuzzy table mention {first!r}" in (
                outcome.grounding_notes
            )


# -- repeated text -------------------------------------------------------------------


class TestGroundQuestionLookups:
    def test_each_distinct_ngram_looked_up_once(self, monkeypatch):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(VocabularyTerm(name="employment", synonyms=["jobs"]))
        vocabulary.add_term(VocabularyTerm(name="labour market barometer"))
        calls: list[str] = []
        thresholds: list[tuple[str, float]] = []
        lookup = DomainVocabulary.lookup

        def counting_lookup(self, text, min_score=0.0):
            calls.append(text)
            thresholds.append((text, min_score))
            return lookup(self, text, min_score)

        monkeypatch.setattr(DomainVocabulary, "lookup", counting_lookup)
        question = " ".join(["a"] * 50 + ["jobs", "jobs", "market", "barometer"] * 3)
        grounded = vocabulary.ground_question(question)
        assert len(calls) == len(set(calls))
        tokens = tokenize_text(question)
        ngrams = {
            " ".join(tokens[start : start + size])
            for size in (1, 2, 3)
            for start in range(len(tokens) - size + 1)
        }
        assert set(calls) <= ngrams
        # A unigram is looked up at 0.999, a longer n-gram at 0.5.
        assert all(
            min_score == (0.999 if len(text.split()) == 1 else 0.5)
            for text, min_score in thresholds
        )
        # Repeats still ground: all six "jobs" map to employment.
        assert [hit.term.name for hit in grounded].count("employment") == 6
