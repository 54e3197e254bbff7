"""The exact bounds grounding uses to skip work, against unfiltered references.

Each bound lets a fast path skip a call that provably cannot succeed; each
test below runs the bounded path and the plain one side by side:

* the character-set filter inside :func:`osa_similarity_within` against
  the full-matrix ``reference_osa_similarity``;
* the trigram bound (``_trigram_bound``) and the
  head-token scan of pass 1 against :class:`BruteForceVocabulary`'s
  ``ground_question`` (terms, matched text, match kinds, scores, order),
  with unicode, repeated tokens, punctuation, fuzzy thresholds above 0.5
  and single tokens of 999-1,200 characters;
* the value index's head-token scan, the filtered question n-grams and
  the inverted intent keyword table against the scans they replace.

Counting wrappers (not timers) check how many lookups a long filler
question costs and how many groundings a data turn makes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine
from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)
from repro.errors import KGError
from repro.kg import SchemaKnowledgeGraph
from repro.kg.vocabulary import (
    DomainVocabulary,
    QuestionTokens,
    VocabularyTerm,
    _trigram_bound,
    char_trigrams,
    osa_similarity_within,
)
from repro.nl import SimulatedLLM
from repro.nl.intent import _KEYWORDS, IntentKind, classify_intent
from repro.nl.nl2sql import GroundedSemanticParser, _singular_ngrams, _singularise
from repro.vector.embedding import tokenize_text
from tests.test_grounding_reference import reference_osa_similarity
from tests.test_vocabulary_index import BruteForceVocabulary, same

# -- the OSA character-set filter ---------------------------------------------------


@st.composite
def osa_pairs(draw):
    """Strings over a wide alphabet with a few edits, so character sets differ."""
    alphabet = draw(st.sampled_from(["abcdefghij", "abcİẞé ü数", "ab"]))
    a = draw(st.text(alphabet=alphabet, max_size=12))
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(b)))
        edit = draw(st.sampled_from(["insert", "delete", "substitute", "transpose"]))
        if edit == "insert":
            b.insert(position, draw(st.sampled_from(alphabet)))
        elif edit == "delete" and position < len(b):
            del b[position]
        elif edit == "substitute" and position < len(b):
            b[position] = draw(st.sampled_from(alphabet))
        elif edit == "transpose" and position + 1 < len(b):
            b[position], b[position + 1] = b[position + 1], b[position]
    return a.lower(), "".join(b).lower()


class TestCharacterSetFilter:
    @settings(max_examples=400, deadline=None)
    @given(osa_pairs())
    def test_each_edit_moves_the_symmetric_difference_by_two(self, pair):
        a, b = pair
        longest = max(len(a), len(b), 1)
        distance = round((1.0 - reference_osa_similarity(a, b)) * longest)
        assert len(set(a) ^ set(b)) <= 2 * distance

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_filtered_kernel_matches_full_matrix(self, data):
        a, b = data.draw(osa_pairs())
        longest = max(len(a), len(b), 1)
        threshold = data.draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.7, 0.72]),
                st.integers(0, longest).map(lambda d: 1.0 - d / longest),
            )
        )
        want = reference_osa_similarity(a, b)
        assert osa_similarity_within(a, b, threshold) == (
            want if want >= threshold else None
        )

    def test_filter_cases(self):
        # Two substitutions: four characters differ, and k = 2 admits them.
        assert osa_similarity_within("abcd", "axcy", 0.5) == 0.5
        # Same length, one edit allowed, but three characters differ.
        assert osa_similarity_within("abcd", "abxy", 0.75) is None
        # A transposition leaves the character set as it is.
        assert osa_similarity_within("abcd", "bacd", 0.75) == 0.75


# -- the trigram bound and the head scan of ground_question ------------------------

#: Few distinct words so surfaces share tokens and trigrams.
WORDS = ["rate", "rates", "labour", "market", "covid-19", "barometer", "jobs", "a", "b"]
#: Words no surface holds, some sharing trigrams with the surfaces.
FILLER = ["the", "ratt", "marker", "barr", "of", "xyz", "laborious", "ob", "a"]
ODD = ["Zürich", "İİ", "数据", "?!", "--", "'x'", "Kate", "1,5", "rate!"]


def long_token(rng: random.Random, length: int) -> tuple[str, str]:
    """``(token, surface)``: the surface's trigrams are the token's minus one.

    The token of ``length`` characters holds ``"abqcd"``, with ``"abcd"``,
    ``"abq"`` and ``"qcd"`` earlier, so removing the ``q`` from it drops only
    the gram ``"bqc"``.  With ``n`` distinct grams the token then scores
    ``(n - 1) / n`` against the surface, which passes 0.999 from ``n = 1000``.
    """
    letters = "abcdefghijklmnoprstuvwxyz0123456789"

    def noise(size: int) -> str:
        return "".join(rng.choice(letters) for _ in range(size))

    head = noise(150) + "abcd" + noise(150) + "abq" + noise(150) + "qcd" + noise(150)
    token = head + "abqcd"
    token += noise(length - len(token))
    return token, head + "abcd" + token[len(head) + 5 :]


@st.composite
def long_token_pair(draw):
    rng = random.Random(draw(st.integers(0, 10_000)))
    return long_token(rng, draw(st.integers(999, 1200)))


@st.composite
def vocabularies(draw, thresholds=(0.2, 0.45, 0.5, 0.55, 0.7, 0.95, 1.0, 1.5)):
    """An indexed vocabulary and its brute-force twin over the same terms."""
    threshold = draw(st.sampled_from(thresholds))
    indexed = DomainVocabulary(fuzzy_threshold=threshold)
    reference = BruteForceVocabulary(threshold)
    surfaces = st.one_of(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
        st.sampled_from(ODD + ["", "-", "a b", "the rate"]),
        st.text(alphabet="abrt -19ü", max_size=8),
    )
    for _ in range(draw(st.integers(0, 6))):
        term = VocabularyTerm(
            name=draw(surfaces), synonyms=draw(st.lists(surfaces, max_size=3))
        )
        try:
            indexed.add_term(term)
        except KGError:
            continue
        reference.add_term(term)
    return indexed, reference


questions = st.lists(
    st.one_of(
        st.sampled_from(WORDS + FILLER + ODD),
        st.text(alphabet="abertmko İ-!é", max_size=6),
    ),
    max_size=12,
).map(" ".join)


def check_same(indexed: DomainVocabulary, reference, question: str) -> list:
    got = indexed.ground_question(question)
    want = reference.ground_question(question)
    assert len(got) == len(want), question
    assert all(same(a, b) for a, b in zip(got, want)), question
    return got


class TestBoundedGroundQuestion:
    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), questions)
    def test_matches_brute_force(self, pair, question):
        check_same(*pair, question)

    @settings(max_examples=150, deadline=None)
    @given(vocabularies(), st.lists(st.sampled_from(WORDS + FILLER), max_size=4))
    def test_repeated_tokens(self, pair, words):
        # Repeats make n-grams such as "rate rate" and "a a a".
        check_same(*pair, " ".join(words * 3))

    @settings(max_examples=150, deadline=None)
    @given(vocabularies(), questions)
    def test_question_tokens_ground_as_text(self, pair, question):
        indexed, _reference = pair
        facts = QuestionTokens(question)
        text = indexed.ground_question(question)
        assert all(
            same(a, b) for a, b in zip(facts.grounding(indexed), text, strict=True)
        )
        # Grounded once: the second request returns the first result.
        assert facts.grounding(indexed) is facts.grounding(indexed)

    @settings(max_examples=200, deadline=None)
    @given(vocabularies(), questions, st.sampled_from([0.5, 0.999]))
    def test_bound_never_rejects_a_hit(self, pair, question, min_score):
        indexed, reference = pair
        tokens = tokenize_text(question)
        facts = indexed._token_facts(tokens)
        threshold = max(min_score, indexed.fuzzy_threshold)
        for size in (1, 2, 3):
            for start in range(len(tokens) - size + 1):
                window = facts[start : start + size]
                if None not in window and _trigram_bound(window) < threshold:
                    hit = reference.lookup(" ".join(tokens[start : start + size]))
                    assert hit is None or hit.score < min_score, window

    @settings(max_examples=25, deadline=None)
    @given(long_token_pair(), st.sampled_from([0.45, 0.999, 1.0]))
    def test_long_tokens(self, pair, fuzzy_threshold):
        token, surface = pair
        indexed = DomainVocabulary(fuzzy_threshold=fuzzy_threshold)
        reference = BruteForceVocabulary(fuzzy_threshold)
        for term in (VocabularyTerm(name=surface), VocabularyTerm(name="rate")):
            indexed.add_term(term)
            reference.add_term(term)
        for question in (token, f"the {token} rate", f"{token} {token}"):
            check_same(indexed, reference, question)

    def test_thousand_gram_token_grounds_at_0_999(self):
        # One unknown gram in 1,000: the equal-set probe cannot pass, but the
        # counted ratio 999 / 1000 does, so the bound must not skip it.
        rng = random.Random(3)
        for _ in range(50):
            # Some of a random token's grams repeat: start long, then trim.
            token, surface = long_token(rng, 1050)
            # Trim the tail until exactly 1,000 distinct grams are left.
            while len(char_trigrams(token)) > 1000:
                token, surface = token[:-1], surface[:-1]
            grams, surface_grams = char_trigrams(token), char_trigrams(surface)
            if len(grams) == 1000 and grams - surface_grams == {"bqc"}:
                if surface_grams <= grams:
                    break
        else:
            pytest.fail("no 1,000-gram token built")
        indexed = DomainVocabulary()
        reference = BruteForceVocabulary(0.45)
        term = VocabularyTerm(name=surface)
        indexed.add_term(term)
        reference.add_term(term)
        (hit,) = check_same(indexed, reference, token)
        assert (hit.match_kind, hit.score) == ("fuzzy", 0.999)


class TestLookupCounts:
    #: Filler of three or more letters sharing no trigram with the swiss
    #: vocabulary (checked below).
    FILLER = ["quickly", "zoo", "fizz", "buzz", "hmm", "pdq", "yyy", "vow"]

    def test_filler_question_lookups(self, monkeypatch):
        vocabulary = build_swiss_labour_registry(seed=3).vocabulary
        known = vocabulary._trigram_postings.keys()
        for word in self.FILLER:
            padded = f" {word} "
            grams = {padded[i : i + 3] for i in range(len(padded) - 2)}
            assert not grams & known, word
            assert word not in vocabulary._token_postings
        rng = random.Random(26)
        words = [rng.choice(self.FILLER) for _ in range(77)]
        words[10:10] = ["jobs"]
        words[40:40] = ["labour", "market"]
        assert len(words) == 80
        calls: list[str] = []
        lookup = DomainVocabulary.lookup

        def counting_lookup(self, text, min_score=0.0):
            calls.append(text)
            return lookup(self, text, min_score)

        monkeypatch.setattr(DomainVocabulary, "lookup", counting_lookup)
        grounded = vocabulary.ground_question(" ".join(words))
        # A filler token of n >= 3 letters has n + 1 grams of its own, none
        # known, so a phrase of k filler tokens bounds at S = k against
        # U >= 4: below 0.5, and below 0.999 for one word.  Only n-grams
        # holding one of the 3 vocabulary positions are looked up, and a
        # position lies in at most 1 + 2 + 3 = 6 of them: N = 18.  The
        # unbounded scan looked up all 80 + 79 + 78 less the consumed ones.
        assert len(calls) <= 18
        assert len(calls) == len(set(calls))
        assert [hit.matched_text for hit in grounded] == ["labour market", "jobs"]


class TestGroundingsPerTurn:
    GOLD = "SELECT COUNT(*) AS count_all FROM cantons"

    @pytest.fixture
    def engine(self):
        domain = build_swiss_labour_registry(seed=3)
        llm = SimulatedLLM(domain.registry.database.catalog, error_rate=0.0, seed=3)
        return CDAEngine(domain.registry, domain.vocabulary, llm=llm)

    @pytest.mark.parametrize(
        "question, groundings",
        [
            # The grounded parser answers: one grounding.
            ("how many employees are there", 1),
            # The parse fails, and _named_source reads the parser's grounding.
            ("zzqx blorf quux", 1),
            # "please" is stripped before parsing, so the parser grounds
            # other tokens than _named_source: two groundings.
            ("please zzqx blorf quux", 2),
        ],
    )
    def test_ground_question_calls(self, engine, monkeypatch, question, groundings):
        calls: list[object] = []
        ground = DomainVocabulary.ground_question

        def counting(self, question, max_ngram=3):
            calls.append(question)
            return ground(self, question, max_ngram)

        monkeypatch.setattr(DomainVocabulary, "ground_question", counting)
        engine.ask(question, llm_gold_sql=self.GOLD)
        assert len(calls) == groundings


# -- head scans and the intent table --------------------------------------------------


def reference_value_mentions(kg: SchemaKnowledgeGraph, tokens: list[str]) -> list:
    """The former scan: every 1-3-gram probed, and each hit's column rescanned."""
    consumed = [False] * len(tokens)
    found = []
    for size in (3, 2, 1):
        for start in range(len(tokens) - size + 1):
            if any(consumed[start : start + size]):
                continue
            phrase = " ".join(tokens[start : start + size])
            hits = []
            for table, column, _stored in kg._value_index.get(phrase, []):
                for value in kg.catalog.table(table).column_values(column):
                    if isinstance(value, str) and value.lower() == phrase:
                        hits.append((table, column, value))
                        break
            if hits:
                found.append((phrase, hits))
                consumed[start : start + size] = [True] * size
    return found


@pytest.fixture(scope="module")
def domain_kgs():
    builders = (
        build_swiss_labour_registry,
        build_ecommerce_registry,
        build_healthcare_registry,
    )
    return [SchemaKnowledgeGraph(b(seed=3).registry.database.catalog) for b in builders]


def _value_words(kg: SchemaKnowledgeGraph) -> list[str]:
    return sorted({word for key in kg._value_index for word in tokenize_text(key)})


class TestHeadScans:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_value_mentions_match_full_scan(self, domain_kgs, data):
        kg = data.draw(st.sampled_from(domain_kgs))
        words = data.draw(
            st.lists(
                st.sampled_from(_value_words(kg) + ["the", "in", "of", "zürich"]),
                max_size=12,
            )
        )
        assert list(kg.value_mentions(words)) == reference_value_mentions(kg, words)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["canton", "cantons", "labour", "market", "markets", "region",
                 "regions", "data", "the", "of", "s"]
            ),
            max_size=10,
        )
    )
    def test_headed_singular_ngrams_keep_every_surface(self, tokens):
        surfaces = {"canton", "labour market", "region data", "market"}
        heads = {"labour", "region"}
        singular = [_singularise(token) for token in tokens]
        full = _singular_ngrams(tokens, 3)
        want = {gram: first for gram, first in full.items() if gram in surfaces}
        headed = _singular_ngrams(tuple(tokens), 3, singular, heads)
        got = {gram: first for gram, first in headed.items() if gram in surfaces}
        assert list(got.items()) == list(want.items())

    def test_parser_heads_cover_multiword_surfaces(self, domain_kgs):
        for kg in domain_kgs:
            parser = GroundedSemanticParser(kg)
            surfaces = [*parser._table_surfaces.values(), *parser._surface_tables]
            for surface in surfaces:
                if " " in surface:
                    assert surface.split()[0] in parser._mention_heads


def reference_classify(utterance: str, expecting_clarification: bool = False):
    """The former classifier: one dict of scores summed kind by kind."""
    tokens = tokenize_text(utterance)
    scores = {kind: 0.0 for kind in IntentKind}
    for kind, keywords in _KEYWORDS.items():
        for token in tokens:
            scores[kind] += keywords.get(token, 0.0)
    if expecting_clarification and len(tokens) <= 8:
        scores[IntentKind.CLARIFICATION_REPLY] = max(scores.values()) + 1.0
    best = max(scores, key=lambda kind: scores[kind])
    if scores[best] == 0.0:
        best = (
            IntentKind.CLARIFICATION_REPLY
            if expecting_clarification
            else IntentKind.DATA_QUERY
        )
    return best, scores[best], scores


class TestInvertedIntentTable:
    KEYWORDS = sorted({token for words in _KEYWORDS.values() for token in words})

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(KEYWORDS + ["zürich", "the", "x"]), max_size=14),
        st.booleans(),
    )
    def test_same_scores_and_tie_break(self, words, expecting):
        text = " ".join(words)
        got = classify_intent(text, expecting_clarification=expecting)
        kind, score, scores = reference_classify(text, expecting)
        assert (got.kind, got.score) == (kind, score)
        assert list(got.scores.items()) == list(scores.items())
        assert classify_intent(QuestionTokens(text), expecting).scores == scores
