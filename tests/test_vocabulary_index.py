"""Parity of the indexed vocabulary lookup with a brute-force scan.

``DomainVocabulary.lookup`` and ``ground_question`` read token and trigram
postings built at ``add_term``.  The reference below is the plain scan they
replace: every surface of every term, re-tokenised and re-trigrammed per
call, scored with the public similarity kernels.  Hypothesis draws random
vocabularies (case-variant duplicates, punctuation, token-less surfaces,
tied scores) and typo'd phrases, and the two must agree exactly — term,
matched text, match kind and score.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KGError
from repro.kg.vocabulary import (
    DomainVocabulary,
    GroundedTerm,
    VocabularyTerm,
    edit_similarity,
    edit_similarity_at_least,
    token_overlap,
    trigram_similarity,
)
from repro.vector.embedding import tokenize_text


class BruteForceVocabulary:
    """The unindexed scan: every surface scored on every call."""

    def __init__(self, fuzzy_threshold: float):
        self.fuzzy_threshold = fuzzy_threshold
        self.terms: list[VocabularyTerm] = []
        self.surface_index: dict[str, tuple[VocabularyTerm, str]] = {}

    def add_term(self, term: VocabularyTerm) -> None:
        self.terms.append(term)
        self.surface_index[term.name.lower().strip()] = (term, "exact")
        for synonym in term.synonyms:
            self.surface_index[synonym.lower().strip()] = (term, "synonym")

    def lookup(self, text: str) -> GroundedTerm | None:
        hit = self.surface_index.get(text.lower().strip())
        if hit is not None:
            return GroundedTerm(
                term=hit[0], matched_text=text, match_kind=hit[1], score=1.0
            )
        best: GroundedTerm | None = None
        for term in self.terms:
            for surface in [term.name, *term.synonyms]:
                overlap = token_overlap(text, surface)
                if overlap > 0 and (best is None or overlap > best.score):
                    best = GroundedTerm(term, surface, "token", overlap)
        if best is not None and best.score >= 0.34:
            return best
        for term in self.terms:
            for surface in [term.name, *term.synonyms]:
                similarity = trigram_similarity(text, surface)
                if similarity >= self.fuzzy_threshold and (
                    best is None or similarity > best.score
                ):
                    best = GroundedTerm(term, surface, "fuzzy", similarity)
        return best

    def ground_question(self, question: str, max_ngram: int = 3) -> list[GroundedTerm]:
        tokens = tokenize_text(question)
        consumed = [False] * len(tokens)
        grounded: list[GroundedTerm] = []
        for exact_only in (True, False):
            for size in range(min(max_ngram, len(tokens)), 0, -1):
                for start in range(0, len(tokens) - size + 1):
                    if any(consumed[start : start + size]):
                        continue
                    hit = self.lookup(" ".join(tokens[start : start + size]))
                    if hit is None:
                        continue
                    if exact_only and hit.match_kind not in ("exact", "synonym"):
                        continue
                    if hit.score >= (0.999 if size == 1 else 0.5):
                        grounded.append(hit)
                        for position in range(start, start + size):
                            consumed[position] = True
        return grounded


#: Few distinct words, so surfaces share tokens and trigrams and tie often.
WORDS = [
    "rate", "rates", "Rate", "work", "force", "labour", "market", "covid-19",
    "COVID-19", "barometer", "employment", "employ", "sector", "a", "b",
]
#: Surfaces with punctuation only or no characters at all have no tokens.
ODD_SURFACES = ["-", "", "  ", "covid-19", "Covid-19 ", "?!", "a-b", "a b"]

surfaces = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    st.sampled_from(ODD_SURFACES),
    st.text(alphabet="abrt -19", max_size=8),
)


@st.composite
def vocabularies(draw):
    threshold = draw(st.sampled_from([0.2, 0.3, 0.45, 0.6]))
    indexed = DomainVocabulary(fuzzy_threshold=threshold)
    reference = BruteForceVocabulary(threshold)
    for _ in range(draw(st.integers(0, 6))):
        name = draw(surfaces)
        synonyms = draw(st.lists(surfaces, max_size=4))
        # Case-variant copies of the term's own surfaces are legal and
        # must not change which surface wins a tie.
        if draw(st.booleans()):
            synonyms.append(name.upper())
        term = VocabularyTerm(name=name, synonyms=synonyms)
        try:
            indexed.add_term(term)
        except KGError:
            continue
        reference.add_term(term)
    return indexed, reference


def typo(draw, text: str) -> str:
    """Delete, transpose, double or substitute one character."""
    if not text:
        return text
    position = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["delete", "transpose", "double", "substitute"]))
    if edit == "delete":
        return text[:position] + text[position + 1 :]
    if edit == "transpose" and position + 1 < len(text):
        return (
            text[:position] + text[position + 1] + text[position] + text[position + 2 :]
        )
    if edit == "double":
        return text[:position] + text[position] + text[position:]
    return text[:position] + draw(st.sampled_from("aeiorst")) + text[position + 1 :]


@st.composite
def phrases(draw):
    text = draw(
        st.one_of(
            surfaces,
            st.lists(st.sampled_from(WORDS + ["the", "of", "in"]), max_size=6).map(
                " ".join
            ),
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        text = typo(draw, text)
    return text


def same(left: GroundedTerm | None, right: GroundedTerm | None) -> bool:
    if left is None or right is None:
        return left is right
    return (
        left.term is right.term
        and left.matched_text == right.matched_text
        and left.match_kind == right.match_kind
        and left.score == right.score
    )


class TestIndexedLookupParity:
    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), st.lists(phrases(), min_size=1, max_size=8))
    def test_lookup_matches_brute_force(self, pair, texts):
        indexed, reference = pair
        for text in texts:
            assert same(indexed.lookup(text), reference.lookup(text)), text

    @settings(max_examples=200, deadline=None)
    @given(vocabularies(), st.lists(phrases(), min_size=1, max_size=4))
    def test_ground_question_matches_brute_force(self, pair, parts):
        indexed, reference = pair
        question = " ".join(parts)
        got = indexed.ground_question(question)
        want = reference.ground_question(question)
        assert len(got) == len(want)
        assert all(same(a, b) for a, b in zip(got, want))

    def test_tie_goes_to_first_surface(self):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(VocabularyTerm(name="rate one"))
        vocabulary.add_term(VocabularyTerm(name="rate two"))
        hit = vocabulary.lookup("rate")
        assert (hit.term.name, hit.match_kind) == ("rate one", "token")

    def test_weak_token_hit_survives_lower_fuzzy_hit(self):
        # Token overlap 1/3 is below 0.34, trigram similarity 0.25 is above
        # the threshold but lower, so the token hit stands.
        vocabulary = DomainVocabulary(fuzzy_threshold=0.2)
        vocabulary.add_term(VocabularyTerm(name="share price"))
        hit = vocabulary.lookup("market share")
        assert hit.match_kind == "token"
        assert hit.score == 1 / 3

    def test_rejected_term_leaves_vocabulary_unchanged(self):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(VocabularyTerm(name="employment", synonyms=["jobs"]))
        try:
            vocabulary.add_term(VocabularyTerm(name="vacancy", synonyms=["jobs"]))
        except KGError:
            pass
        assert "vacancy" not in vocabulary
        assert vocabulary.lookup("vacancy") is None


def thresholded(hit: GroundedTerm | None, min_score: float) -> GroundedTerm | None:
    return hit if hit is not None and hit.score >= min_score else None


#: Phrases with repeated tokens, punctuation and non-ASCII text ("İ" and the
#: Kelvin sign lower-case to ASCII letters).
odd_phrases = st.one_of(
    phrases(),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(lambda w: " ".join(w * 2)),
    st.text(alphabet="abert İ\u212a-!?é19", max_size=10),
)


class TestThresholdedLookupParity:
    """``lookup(p, t)`` is the brute-force ``lookup(p)`` kept only at ``>= t``."""

    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), st.lists(odd_phrases, min_size=1, max_size=8), st.floats(0, 1))
    def test_matches_thresholded_brute_force(self, pair, texts, min_score):
        indexed, reference = pair
        for text in texts:
            want = reference.lookup(text)
            # No threshold, ground_question's two, and a random one.
            for t in (0.0, 0.5, 0.999, min_score):
                assert same(indexed.lookup(text, t), thresholded(want, t)), (text, t)

    @staticmethod
    def check(
        names: list[str], text: str, min_score: float, fuzzy_threshold: float = 0.45
    ) -> GroundedTerm | None:
        indexed = DomainVocabulary(fuzzy_threshold)
        reference = BruteForceVocabulary(fuzzy_threshold)
        for name in names:
            indexed.add_term(VocabularyTerm(name=name))
            reference.add_term(VocabularyTerm(name=name))
        got = indexed.lookup(text, min_score)
        want = thresholded(reference.lookup(text), min_score)
        assert got is want is None or (
            got.term.name, got.matched_text, got.match_kind, got.score
        ) == (want.term.name, want.matched_text, want.match_kind, want.score)
        return got

    def test_weak_token_hit_decides_over_equal_trigram_set(self):
        # "aaaaa" scores 0.5 against "aaaaa b" by token, which decides the
        # lookup even though "aaaa" has the very same trigram set.
        names = ["aaaaa b", "aaaa"]
        assert self.check(names, "aaaaa", 0.5).match_kind == "token"
        assert self.check(names, "aaaaa", 0.999) is None

    def test_equal_trigram_sets_of_distinct_strings(self):
        hit = self.check(["aaaa"], "aaaaa", 0.999)
        assert (hit.matched_text, hit.match_kind, hit.score) == ("aaaa", "fuzzy", 1.0)
        # No fuzzy hit at all above a fuzzy threshold of 1.
        assert self.check(["aaaa"], "aaaaa", 0.999, fuzzy_threshold=1.5) is None

    def test_thresholds_at_the_bounds(self):
        # "aa" has 3 trigrams, all in "aaa"'s 4: 3/4 only just passes.
        assert self.check(["aaa"], "aa", 0.75).score == 0.75
        # "aaaa bcd" shares 4 of its 8 trigrams with "aaaaa": 4/8 passes 0.5.
        assert self.check(["aaaaa"], "aaaa bcd", 0.5).score == 0.5
        assert self.check(["employment"], "employment", 1.5) is None

    def test_repeated_tokens_punctuation_and_unicode(self):
        assert self.check(["rate"], "rate rate", 0.999).match_kind == "token"
        assert self.check(["rate"], "rate?!", 0.999).match_kind == "token"
        assert self.check(["rate"], "\u212aate", 0.999) is None
        assert self.check(["kate"], "\u212aate", 0.999).match_kind == "exact"
        assert self.check(["kate"], "\u212aate!", 0.999).match_kind == "token"
        assert self.check(["labour market"], "labour-market!", 0.5).score == 1.0
        assert self.check(["a"], "a\u00e9", 0.999).match_kind == "token"

    def test_ties_go_to_the_first_surface(self):
        assert self.check(["rate!", "rate"], "rate?", 0.999).matched_text == "rate!"
        assert self.check(["aaaa", "aaaaaa"], "aaaaa", 0.999).matched_text == "aaaa"
        assert self.check(["rate one", "rate two"], "rate", 0.999) is None
        assert self.check(["rate one", "rate two"], "rate", 0.5).matched_text == "rate one"


class TestEditSimilarityPrefilter:
    @settings(max_examples=500, deadline=None)
    @given(
        st.text(alphabet="abcABİ ", max_size=9),
        st.text(alphabet="abcABİ ", max_size=9),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_equals_full_comparison(self, a, b, threshold):
        assert edit_similarity_at_least(a, b, threshold) == (
            edit_similarity(a, b) >= threshold
        )

    def test_length_gap_skips_to_false(self):
        assert not edit_similarity_at_least("rate", "barometers", 0.72)
        assert edit_similarity_at_least("vehilces", "vehicles", 0.72)

    def test_lengths_compared_after_lowercasing(self):
        # "İ" lower-cases to two characters, "i" plus a combining dot.
        assert edit_similarity_at_least("İİ", "i̇i̇", 0.72)
