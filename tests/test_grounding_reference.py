"""Fuzzy grounding against brute-force references.

The references below are the plain code the fast paths replace:

* ``reference_osa_similarity`` fills the whole optimal-string-alignment
  matrix; the banded :func:`osa_similarity_within` must return exactly its
  value whenever that value reaches the threshold, and ``None`` otherwise,
  and the same value with its arguments swapped;
* ``reference_score_against`` re-tokenises and re-trigrams the phrase and
  the node's label and comment on every call and compares every pair of
  phrase token and label token; ``find_tables`` and ``find_columns``, which
  read profiles built once, must return the same nodes, scores,
  ``matched_on`` and order;
* ``reference_profile_score``, ``reference_tables_with_column`` and
  ``reference_table_evidence`` are the parser's former per-pair typo scans,
  which compared every token with every surface on every call; the schema
  graph's token memo (``similar_surfaces``) must give the same scores,
  candidate tables, ``via`` notes and order on a cold memo, a warm one and
  one that is evicted while a question is read.

A counting wrapper (not a timer) checks that ``ground_question`` looks
each distinct n-gram up at most once.
"""

from __future__ import annotations

import random
import re
import runpy
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import WorkloadSpec, build_workload
from repro.benchgen.schema_gen import ARCHETYPES
from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)
from repro.errors import AmbiguousQuestionError, TranslationError
from repro.kg import SchemaKnowledgeGraph
from repro.kg import vocabulary as vocabulary_module
from repro.kg.schema_kg import CDA_COLUMN, CDA_TABLE, SchemaMatch, _Profile
from repro.kg.vocabulary import (
    DomainVocabulary,
    QuestionTokens,
    VocabularyTerm,
    edit_similarity,
    edit_similarity_at_least,
    jaccard,
    osa_similarity_within,
    singularise,
    token_overlap,
    trigram_similarity,
)
from repro.nl.nl2sql import (
    _FILLER_PREFIXES,
    _FILLER_WORDS,
    GroundedSemanticParser,
    _singular_ngrams,
    _singularise,
)
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


def reference_profile_score(phrase: _Profile, node: _Profile) -> tuple[float, str]:
    """The former ``_score_against``: each (phrase token, label token) pair
    through the banded kernel, at a floor rising with the best score so far.
    Only 0.9 * similarity > best counts (1e-9 dwarfs either side's rounding).
    """
    best = max(
        jaccard(phrase.tokens, node.tokens),
        jaccard(phrase.trigrams, node.trigrams),
    )
    matched_on = "label"
    for phrase_token in phrase.long_tokens:
        for label_token in node.long_tokens:
            floor = max(0.7, best / 0.9 - 1e-9)
            similarity = osa_similarity_within(phrase_token, label_token, floor)
            if similarity is not None and 0.9 * similarity > best:
                best = 0.9 * similarity
                matched_on = "label"
    if node.comment_tokens is not None:
        comment_score = 0.9 * jaccard(phrase.tokens, node.comment_tokens)
        if comment_score > best:
            best = comment_score
            matched_on = "comment"
    return best, matched_on


def reference_tables_with_column(
    parser: GroundedSemanticParser, phrase: str, fuzzy: bool = False
) -> list[str]:
    """Tables holding a column whose name matches ``phrase``.

    ``fuzzy`` extends the match to high edit similarity (typo
    tolerance), used only as a fallback when no exact holder exists.
    """
    target = singularise(phrase.replace("_", " ").lower())
    if not fuzzy:
        return parser._surface_tables.get(target, [])
    return [
        table
        for table, surfaces in parser._column_surfaces.items()
        if any(
            surface == target
            or (
                min(len(surface), len(target)) >= 4
                and edit_similarity_at_least(surface, target, 0.72)
            )
            for surface in surfaces.values()
        )
    ]


def reference_table_evidence(
    parser: GroundedSemanticParser,
    text: str,
    facts: QuestionTokens,
    value_filters: list,
    measure_hint: str,
    preferred_table: str | None,
) -> tuple[dict[str, float], dict[str, str]]:
    """The former ``_resolve_table``'s evidence: every typo check through
    :func:`edit_similarity_at_least`, and the question grounded afresh."""
    candidates: dict[str, float] = {}
    via: dict[str, str] = {}
    if preferred_table is not None:
        for table in parser.schema_kg.tables():
            if table.lower() == preferred_table.lower():
                candidates[table] = 1.5
                via[table] = "user clarification"
    if parser.vocabulary is not None and parser.config.use_vocabulary:
        # The vocabulary grounds the text through a memo of its own, cold.
        with mock.patch.object(parser.vocabulary, "_memo", {}):
            grounding = parser.vocabulary.ground_question(QuestionTokens(facts.text))
        for grounded in grounding:
            for binding in grounded.term.schema_bindings:
                if binding.startswith("table:"):
                    name = binding.split(":", 1)[1]
                    score = grounded.score
                    if score > candidates.get(name, 0.0):
                        candidates[name] = score
                        via[name] = (
                            f"vocabulary term {grounded.term.name!r} "
                            f"({grounded.match_kind})"
                        )
    if parser.config.use_schema_graph:
        for match in parser.schema_kg.find_tables(text, min_score=0.15):
            if match.score > candidates.get(match.table, 0.0):
                candidates[match.table] = match.score
                via[match.table] = f"schema {match.matched_on} match"
        # Direct table-name mentions (with singular/plural tolerance)
        # outrank whole-question overlap scores.
        # Each distinct n-gram is scored once, in first-occurrence order,
        # so the notes name the first mention.
        # Singularised n-gram -> its first n-gram in the question; only
        # the n-grams that can name a table or a column are formed.
        gram_surfaces = _singular_ngrams(
            facts.tokens, 3, facts.singular, parser._mention_heads
        )
        # Singularised token -> its first token of four or more letters.
        typo_tokens: dict[str, str] = {}
        for token, singular in zip(facts.tokens, facts.singular):
            if len(token) >= 4:
                typo_tokens.setdefault(singular, token)
        for table, surface in parser._table_surfaces.items():
            gram = gram_surfaces.get(surface)
            if gram is not None and candidates.get(table, 0.0) < 0.9:
                candidates[table] = 0.9
                via[table] = f"table-name mention {gram!r}"
            # Typo-tolerant mention ("vehilces" -> vehicles); the first decides.
            if candidates.get(table, 0.0) < 0.85:
                for singular, token in typo_tokens.items():
                    if edit_similarity_at_least(singular, surface, 0.72):
                        candidates[table] = 0.85
                        via[table] = f"fuzzy table mention {token!r}"
                        break
        # "of/from <table>" marks the source table decisively:
        # "list the depot and mileage OF VEHICLES ..." is about vehicles.
        for match in re.finditer(r"\b(?:of|from|among)\s+(?:the\s+)?([a-z_]+)", text):
            word = singularise(match.group(1))
            for table, surface in parser._table_surfaces.items():
                if surface == word:
                    if candidates.get(table, 0.0) < 1.0:
                        candidates[table] = 1.0
                        via[table] = f"'of {match.group(1)}' construction"
        # The measure column of an aggregate is strong evidence: the
        # aggregated column must live in the answering table.  A COUNT
        # subject that *names* a table ("how many employees ...") is
        # equally strong.
        if measure_hint:
            first_word = measure_hint.replace("_", " ").lower().split()[0]
            subject = singularise(first_word)
            subject_matched = False
            for table, table_surface in parser._table_surfaces.items():
                exact = table_surface == subject
                fuzzy = len(subject) >= 4 and edit_similarity_at_least(
                    table_surface, subject, 0.72
                )
                if exact or fuzzy:
                    # "how many vehicles ..." decides the table outright;
                    # later column mentions are filter material, so the
                    # subject outranks measure-column votes.
                    if candidates.get(table, 0.0) < 1.1:
                        candidates[table] = 1.1
                        via[table] = f"count subject {measure_hint!r}"
                    subject_matched = True
            if not subject_matched:
                hint_phrases = [measure_hint] + measure_hint.split()
                for hint in hint_phrases:
                    holders = reference_tables_with_column(parser, hint)
                    if not holders:
                        holders = reference_tables_with_column(parser, hint, fuzzy=True)
                    if len(holders) == 1:
                        holder = holders[0]
                        # The aggregated column must live in the FROM
                        # table, so this evidence outranks vocabulary
                        # and table-name mentions.
                        if candidates.get(holder, 0.0) < 1.15:
                            candidates[holder] = 1.15
                            via[holder] = f"measure column {hint!r} lives in it"
                        break
        # Unambiguous column mentions vote (weakly) for their table.
        for singular, gram in gram_surfaces.items():
            holders = parser._surface_tables.get(singular, [])
            if len(holders) == 1:
                holder = holders[0]
                if candidates.get(holder, 0.0) < 0.55:
                    candidates[holder] = 0.55
                    via.setdefault(holder, f"column mention {gram!r}")
    else:
        # Exact-name matching only: the ungrounded baseline.
        for table in parser.schema_kg.tables():
            surface = table.replace("_", " ")
            if surface in text:
                candidates[table] = max(candidates.get(table, 0.0), 1.0)
                via[table] = "exact table-name mention"
    # A value filter implies its table (weakly).
    for spec in value_filters:
        if spec.table is not None:
            current = candidates.get(spec.table, 0.0)
            candidates[spec.table] = max(current, 0.45)
            via.setdefault(spec.table, f"value {spec.value!r} found in it")
    return candidates, via


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

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_symmetric(self, data):
        # The measure hint reads the memo of its subject for the pair
        # (table surface, subject): the kernel must not care which is first.
        a, b = data.draw(edited_pairs())
        threshold = data.draw(thresholds((a, b)))
        a, b = a.lower(), b.lower()
        want = reference_osa_similarity(a, b)
        assert reference_osa_similarity(b, a) == want
        assert osa_similarity_within(a, b, threshold) == osa_similarity_within(
            b, a, threshold
        )

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
        kg = graphs[0]
        typos = kg._typo_similarities(phrase)
        assert kg._score_against(phrase, typos, node) == (0.9 * similarity, "label")
        assert reference_profile_score(phrase, node) == (0.9 * similarity, "label")


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


# -- the schema graph's token memo ---------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DOMAINS = {
    "swiss": build_swiss_labour_registry,
    "ecommerce": build_ecommerce_registry,
    "healthcare": build_healthcare_registry,
}
UNICODE = ["Zürich", "İİ", "数据", "Straẞe", "naïve", "☃", "«quoted»", "Ærø"]
FILLERS = [*sorted(_FILLER_WORDS), "for my report", "as soon as possible"]


def _perfbench_questions(domain: str) -> list[str]:
    """The domain's conversation and long questions, as the turn benchmark asks them."""
    workloads = runpy.run_path(str(PERFBENCH), run_name="perfbench_workloads")
    questions = []
    for script in (workloads["conversation_script"], workloads["long_question_script"]):
        turns = script(domain, random.Random(5))
        questions += [next(turns).text for _ in range(40)]
    return sorted(set(questions))


@pytest.fixture(scope="module")
def question_parsers() -> list[tuple[GroundedSemanticParser, list[str]]]:
    """``(parser, questions)``: perfbench's three domains with their
    vocabularies, and every benchgen archetype without one."""
    pairs = []
    for domain, build in DOMAINS.items():
        bundle = build(seed=3)
        kg = SchemaKnowledgeGraph(bundle.registry.database.catalog)
        parser = GroundedSemanticParser(kg, bundle.vocabulary)
        pairs.append((parser, _perfbench_questions(domain)))
    workload = build_workload(
        WorkloadSpec(
            n_questions_per_domain=12,
            n_domains=len(ARCHETYPES),
            n_rows=20,
            paraphrase_strength=0.3,
            seed=3,
        )
    )
    by_database: dict[int, tuple[GroundedSemanticParser, list[str]]] = {}
    for item in workload.items:
        database = item.spec.database
        if id(database) not in by_database:
            parser = GroundedSemanticParser(SchemaKnowledgeGraph(database.catalog))
            by_database[id(database)] = (parser, [])
        by_database[id(database)][1].extend([item.case.question, item.surface_question])
    return pairs + list(by_database.values())


def _typos(draw, word: str) -> str:
    """``word`` with up to three random edits, so similarities land on
    either side of the 0.72 and 0.7 thresholds."""
    for _ in range(draw(st.integers(1, 3))):
        word = _typo(draw, word)
    return word


@st.composite
def mutated(draw, questions: list[str], names: list[str] = ()) -> str:
    """A question with typos, unicode, 1,000-character tokens and fillers;
    a typo'd table or column name from ``names`` is spliced in too."""
    words = draw(st.sampled_from(questions)).split()
    edits = ["typo", "typo", "unicode", "long", "filler"] + ["name", "cue"] * bool(names)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(edits))
        position = draw(st.integers(0, len(words)))
        if edit == "typo" and position < len(words):
            words[position] = _typos(draw, words[position])
        elif edit == "name":
            words.insert(position, _typos(draw, draw(st.sampled_from(names))))
        elif edit == "cue":
            # The name is the measure or count subject, read by the hint.
            cue = draw(st.sampled_from(["how many", "what is the average", "total"]))
            name = _typos(draw, draw(st.sampled_from(names)))
            words[position:position] = [*cue.split(), name]
        elif edit == "unicode":
            words.insert(position, draw(st.sampled_from(UNICODE)))
        elif edit == "long":
            word = draw(st.sampled_from(words or ["employees"]))
            words.insert(position, (word * (1000 // max(len(word), 1) + 1))[:1000])
        elif edit == "filler":
            words.insert(position, draw(st.sampled_from(FILLERS)))
    if draw(st.booleans()):
        words.insert(0, draw(st.sampled_from(_FILLER_PREFIXES)))
    return " ".join(words)


def _schema_names(parser: GroundedSemanticParser) -> list[str]:
    """The schema's table and column names, plural and singular."""
    names = set(parser._table_surfaces.items())
    for columns in parser._column_surfaces.values():
        names.update(columns.items())
    return sorted({word for pair in names for word in pair})


def _cold(parser: GroundedSemanticParser) -> None:
    parser.schema_kg._similar.clear()
    if parser.vocabulary is not None:
        parser.vocabulary._memo.clear()


def _parse_with_evidence(parser: GroundedSemanticParser, question: str):
    """The outcome of ``parser.parse(question)`` and each ``_table_evidence``
    call it made, with its arguments and result."""
    calls = []
    evidence = parser._table_evidence

    def recording(*args):
        result = evidence(*args)
        calls.append((args, result))
        return result

    with mock.patch.object(parser, "_table_evidence", recording):
        try:
            outcome = parser.parse(question)
            seen = ("parsed", outcome.sql, outcome.confidence, outcome.grounding_notes)
        except AmbiguousQuestionError as error:
            seen = ("ambiguous", str(error), error.candidates)
        except TranslationError as error:
            seen = ("untranslated", str(error))
    return seen, calls


def _schema_surfaces(kg: SchemaKnowledgeGraph) -> set[str]:
    surfaces = set(kg.table_surfaces.values())
    for columns in kg.column_surfaces.values():
        surfaces.update(columns.values())
    for node in kg.ontology.instances_of(CDA_TABLE) + kg.ontology.instances_of(CDA_COLUMN):
        surfaces.update(t for t in tokenize_text(kg.ontology.label(node)) if len(t) >= 4)
    return surfaces


class TestSurfaceMemo:
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_similar_surfaces_match_every_pair(self, question_parsers, data):
        parser, questions = data.draw(st.sampled_from(question_parsers))
        kg = parser.schema_kg
        words = sorted({w for q in questions for w in tokenize_text(q)})
        token = data.draw(
            st.one_of(
                st.sampled_from(words).map(lambda w: _typos(data.draw, w)),
                st.sampled_from(sorted(_schema_surfaces(kg))),
                st.text(alphabet="aeilnorstuİ数 ", max_size=70),
            )
        ).lower()
        want = {}
        for surface in _schema_surfaces(kg):
            similarity = reference_osa_similarity(token, surface)
            if similarity >= 0.7:
                want[surface] = similarity
        assert dict(kg.similar_surfaces(token)) == want
        # A second read is the memo's, and equal.
        assert dict(kg.similar_surfaces(token)) == want

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_profile_scores_match_the_pair_scan(self, question_parsers, data):
        parser, questions = data.draw(st.sampled_from(question_parsers))
        kg = parser.schema_kg
        phrase = _Profile.of(data.draw(mutated(questions, _schema_names(parser))).lower())
        if data.draw(st.booleans()):
            _cold(parser)
        typos = kg._typo_similarities(phrase)
        for profiles in (kg._table_profiles, kg._column_profiles):
            for node, profile in profiles.items():
                assert kg._score_against(phrase, typos, profile) == (
                    reference_profile_score(phrase, profile)
                ), node


class TestTableResolutionReference:
    """``_resolve_table`` against the former per-pair scans, in three memo
    states: cold, warmed by other questions, and evicting mid-question."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_candidates_in_every_memo_state(self, question_parsers, data):
        parser, questions = data.draw(st.sampled_from(question_parsers))
        names = _schema_names(parser)
        question = data.draw(mutated(questions, names))
        others = data.draw(st.lists(mutated(questions, names), min_size=1, max_size=4))
        outcomes = []
        for state in ("cold", "warm", "evicting"):
            cap = data.draw(st.integers(1, 4)) if state == "evicting" else None
            with mock.patch.object(
                vocabulary_module,
                "TOKEN_MEMO_CAP",
                cap or vocabulary_module.TOKEN_MEMO_CAP,
            ):
                _cold(parser)
                if state != "cold":
                    for other in others:
                        _parse_with_evidence(parser, other)
                seen, calls = _parse_with_evidence(parser, question)
                if cap is not None:
                    assert len(parser.schema_kg._similar) <= cap
                for args, (candidates, via) in calls:
                    want_candidates, want_via = reference_table_evidence(parser, *args)
                    assert list(candidates.items()) == list(want_candidates.items())
                    assert list(via.items()) == list(want_via.items())
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_typo_subjects(self, question_parsers):
        # Table and column names with one to three random edits, as count and
        # measure subjects and as plain mentions: the typo loop, the measure
        # hint and the fuzzy column holders each see similarities on both
        # sides of 0.72.
        rng = random.Random(31)
        letters = "aeioustrn"
        for parser, _questions in question_parsers:
            _cold(parser)
            for name in _schema_names(parser):
                for _ in range(12):
                    word = list(name)
                    for _edit in range(rng.randint(1, 3)):
                        position = rng.randrange(len(word) + 1)
                        edit = rng.choice(["insert", "delete", "substitute", "swap"])
                        if edit == "insert":
                            word.insert(position, rng.choice(letters))
                        elif edit == "swap" and position < len(word) - 1:
                            word[position : position + 2] = word[position + 1], word[position]
                        elif position < len(word):
                            if edit == "delete":
                                del word[position]
                            else:
                                word[position] = rng.choice(letters)
                    typo = "".join(word)
                    for question in (
                        f"how many {typo} are there",
                        f"what is the average {typo}",
                        f"list the {typo} of the records",
                    ):
                        _seen, calls = _parse_with_evidence(parser, question)
                        for args, (candidates, via) in calls:
                            want = reference_table_evidence(parser, *args)
                            assert (candidates, via) == want, question
                            assert list(via) == list(want[1]), question

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tables_with_column(self, question_parsers, data):
        parser, questions = data.draw(st.sampled_from(question_parsers))
        phrase = data.draw(
            st.one_of(
                st.sampled_from(_schema_names(parser)).map(lambda c: _typos(data.draw, c)),
                mutated(questions),
            )
        )
        if data.draw(st.booleans()):
            _cold(parser)
        for fuzzy in (False, True):
            assert parser._tables_with_column(phrase, fuzzy) == (
                reference_tables_with_column(parser, phrase, fuzzy)
            )

