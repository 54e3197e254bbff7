"""Domain vocabulary: terms, synonyms, definitions, schema bindings.

This is the disambiguation substrate for P2.  A
:class:`DomainVocabulary` maps surface language ("working force",
"headcount", "staff") to canonical domain terms ("employment") and from
there to the schema elements that hold the data — the step in Figure 1
where the system understands that "working force in Switzerland" means
the labour-market datasets.

Matching is layered: exact term/synonym hit, then token-overlap scoring,
then character-trigram fuzzy match.  An exact hit returns at once, and a
token hit scoring at least 0.34 skips the fuzzy layer; a weaker token hit
is kept and only a higher fuzzy score displaces it.  Every hit reports its
match kind so the explanation layer can say *why* a term was grounded the
way it was.

The token and trigram layers read postings built in
:meth:`DomainVocabulary.add_term` (surfaces in scan order: each term's name,
then its synonyms): a lookup grams the phrase once, counts shared grams per
surface through the postings and scores only surfaces sharing one, as
``shared / (|phrase| + |surface| - shared)`` — the integer ratio of
:func:`token_overlap` and :func:`trigram_similarity`, bit for bit.

``lookup(text, min_score)`` keeps that hit only at ``>= min_score`` and
stops early where that is provably exact.  Above 0.5 a one-token phrase
scores 1/n against an n-token surface, so dict probes settle the token
layer: the fewest n holding the token (does the layer decide?) and the
equal token set (the only pass).  A fuzzy hit needs t = max(min_score,
fuzzy threshold); another trigram set scores at most |A|/(|A|+1), so below
that only an equal set passes (a probe), and a ratio is at most shared/|A|,
so fewer than t·|A| of the phrase's grams in any surface rule it out.

Every edit-distance typo check runs through one banded OSA kernel,
:func:`osa_similarity_within`, which gives up once a threshold is out of reach.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import KGError
from repro.vector.embedding import tokenize_text


@dataclass
class VocabularyTerm:
    """One canonical domain term with synonyms and schema bindings."""

    name: str
    definition: str = ""
    synonyms: list[str] = field(default_factory=list)
    #: Schema elements this term grounds to, e.g. ``"table:employment"``
    #: or ``"column:employment.rate"``.
    schema_bindings: list[str] = field(default_factory=list)
    #: Optional broader term (taxonomy edge).
    broader: str | None = None


@dataclass
class GroundedTerm:
    """A vocabulary hit: the term, how it matched, and how well."""

    term: VocabularyTerm
    matched_text: str
    match_kind: str  # "exact" | "synonym" | "token" | "fuzzy"
    score: float


def char_trigrams(text: str) -> set[str]:
    """Lower-cased character trigrams of ``text``, padded at both ends."""
    padded = f"  {text.lower()} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def jaccard(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    """``|a & b| / |a | b|`` of two gram sets; 0.0 when either is empty."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def trigram_similarity(a: str, b: str) -> float:
    """Jaccard similarity of character trigrams (fuzzy-match kernel)."""
    return jaccard(char_trigrams(a), char_trigrams(b))


def edit_similarity(a: str, b: str) -> float:
    """Normalised Damerau-Levenshtein (OSA) similarity.

    The typo kernel: "capasity" vs "capacity" scores 0.875, and adjacent
    transpositions ("caapcity" vs "capacity") count as a single edit — the
    dominant human typo class.  :func:`osa_similarity_within` at threshold
    0, where the band spans the whole matrix.
    """
    return osa_similarity_within(a.lower(), b.lower(), 0.0)


def edit_similarity_at_least(a: str, b: str, threshold: float) -> bool:
    """``edit_similarity(a, b) >= threshold``, through the banded kernel."""
    return osa_similarity_within(a.lower(), b.lower(), threshold) is not None


def osa_similarity_within(a: str, b: str, threshold: float) -> float | None:
    """OSA similarity of two lower-cased strings, or ``None`` below ``threshold``.

    The value is the full dynamic programme's ``1 - distance / max(len)``.
    Only cells within ``k`` of the diagonal are computed (Ukkonen's band),
    ``k`` being the most edits that same float expression lets through; row
    minima never decrease, so a row whose minimum exceeds ``k`` ends it.
    """
    if a == b or not a or not b:
        similarity = 1.0 if a == b else 0.0
        return similarity if similarity >= threshold else None
    n, m = len(a), len(b)
    longest = max(n, m)
    k = int(max(0.0, min(longest, (1.0 - threshold) * longest)))
    while k < longest and 1.0 - (k + 1) / longest >= threshold:
        k += 1
    while k >= 0 and 1.0 - k / longest < threshold:
        k -= 1
    if abs(n - m) > k:
        return None
    beyond = k + 1
    before: list[int] = []
    previous = [j if j <= k else beyond for j in range(m + 1)]
    for i in range(1, n + 1):
        row = [beyond] * (m + 1)
        if i <= k:
            row[0] = i
        char = a[i - 1]
        for j in range(max(1, i - k), min(m, i + k) + 1):
            other = b[j - 1]
            cost = previous[j - 1] + (char != other)
            if previous[j] + 1 < cost:
                cost = previous[j] + 1
            if row[j - 1] + 1 < cost:
                cost = row[j - 1] + 1
            # Adjacent transposition counts as one edit.
            if i > 1 and j > 1 and char == b[j - 2] and a[i - 2] == other:
                cost = min(cost, before[j - 2] + 1)
            row[j] = cost
        if min(row) > k:
            return None
        before, previous = previous, row
    return 1.0 - previous[m] / longest if previous[m] <= k else None


def token_overlap(a: str, b: str) -> float:
    """Jaccard similarity of word tokens."""
    return jaccard(set(tokenize_text(a)), set(tokenize_text(b)))


def _best_surface(
    grams: set[str],
    postings: dict[str, list[int]],
    sizes: list[int],
    min_score: float,
) -> tuple[float, int] | None:
    """Highest Jaccard ``(score, position)`` over surfaces sharing a gram.

    ``sizes[position]`` is the surface's gram count.  Ties go to the lowest
    position, which is what a strict ``>`` over a scan in position order
    keeps.
    """
    shared = Counter(chain.from_iterable(postings.get(gram, ()) for gram in grams))
    count_a = len(grams)
    best: tuple[float, int] | None = None
    for position, count in shared.items():
        score = count / (count_a + sizes[position] - count)
        if score < min_score:
            continue
        if best is None or score > best[0] or (
            score == best[0] and position < best[1]
        ):
            best = (score, position)
    return best


class DomainVocabulary:
    """A registry of :class:`VocabularyTerm` with layered lookup."""

    def __init__(self, fuzzy_threshold: float = 0.45):
        if not fuzzy_threshold > 0.0:
            raise KGError("fuzzy_threshold must be positive")
        self._terms: dict[str, VocabularyTerm] = {}
        self._surface_index: dict[str, tuple[str, str]] = {}
        #: Every ``(term, name or synonym)`` in scan order (terms as added,
        #: each term's name before its synonyms), with the surface's distinct
        #: token and trigram counts beside it; postings hold positions here.
        self._surfaces: list[tuple[VocabularyTerm, str]] = []
        self._token_counts: list[int] = []
        self._trigram_counts: list[int] = []
        self._token_postings: dict[str, list[int]] = {}
        self._trigram_postings: dict[str, list[int]] = {}
        #: First position of each distinct token set and trigram set, and the
        #: fewest distinct tokens of a surface holding each token.
        self._token_sets: dict[frozenset[str], int] = {}
        self._trigram_sets: dict[frozenset[str], int] = {}
        self._fewest_tokens: dict[str, int] = {}
        self.fuzzy_threshold = fuzzy_threshold

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._terms

    @property
    def term_names(self) -> list[str]:
        """All canonical term names."""
        return sorted(self._terms)

    def add_term(self, term: VocabularyTerm) -> None:
        """Register a term; names and synonyms must not collide.

        A rejected term leaves the vocabulary unchanged.
        """
        key = term.name.lower()
        if key in self._terms:
            raise KGError(f"vocabulary term {term.name!r} already exists")
        surfaces = [(term.name, "exact")] + [(s, "synonym") for s in term.synonyms]
        for surface, _kind in surfaces:
            existing = self._surface_index.get(surface.lower().strip())
            if existing is not None and existing[0] != key:
                raise KGError(
                    f"surface form {surface!r} already maps to {existing[0]!r}"
                )
        self._terms[key] = term
        for surface, kind in surfaces:
            self._surface_index[surface.lower().strip()] = (key, kind)
            self._add_postings(term, surface)

    def _add_postings(self, term: VocabularyTerm, surface: str) -> None:
        position = len(self._surfaces)
        tokens = set(tokenize_text(surface))
        trigrams = char_trigrams(surface)
        self._surfaces.append((term, surface))
        self._token_counts.append(len(tokens))
        self._trigram_counts.append(len(trigrams))
        self._token_sets.setdefault(frozenset(tokens), position)
        self._trigram_sets.setdefault(frozenset(trigrams), position)
        for token in tokens:
            self._token_postings.setdefault(token, []).append(position)
            fewest = self._fewest_tokens.get(token, len(tokens))
            self._fewest_tokens[token] = min(fewest, len(tokens))
        for trigram in trigrams:
            self._trigram_postings.setdefault(trigram, []).append(position)

    def term(self, name: str) -> VocabularyTerm:
        """Fetch a term by canonical name."""
        key = name.lower()
        if key not in self._terms:
            raise KGError(f"no vocabulary term {name!r}")
        return self._terms[key]

    # -- lookup layers -----------------------------------------------------------------

    def lookup(self, text: str, min_score: float = 0.0) -> GroundedTerm | None:
        """Ground a phrase to its best-matching term, if that scores >= min_score."""
        key = text.lower().strip()
        hit = self._surface_index.get(key)
        if hit is not None:
            exact = GroundedTerm(self._terms[hit[0]], text, hit[1], score=1.0)
            return exact if exact.score >= min_score else None
        # Letters, digits and spaces alone split into the tokens they hold.
        plain = text.replace(" ", "")
        simple = plain.isascii() and plain.isalnum()
        tokens = set(key.split() if simple else tokenize_text(text))
        best_token = None
        if len(tokens) == 1 and min_score > 0.5:
            # One token scores 1/n against a surface of n tokens, so the
            # fewest n (3 when absent) decides whether the token layer
            # answers, and only n == 1 (an equal token set) can pass.
            (token,) = tokens
            fewest = self._fewest_tokens.get(token, 3)
            if 1 / fewest >= 0.34:
                best_token = (1 / fewest, self._token_sets.get(frozenset(tokens)))
        elif not self._token_postings.keys().isdisjoint(tokens):
            best_token = _best_surface(
                tokens, self._token_postings, self._token_counts, 0.0
            )
        if best_token is not None and best_token[0] >= 0.34:
            best, kind = best_token, "token"
        else:
            best_fuzzy = self._best_fuzzy(text, max(min_score, self.fuzzy_threshold))
            # A weak token hit stands unless a fuzzy hit scores strictly higher.
            if best_fuzzy is not None and (
                best_token is None or best_fuzzy[0] > best_token[0]
            ):
                best, kind = best_fuzzy, "fuzzy"
            else:
                best, kind = best_token, "token"
        if best is None or best[0] < min_score:
            return None
        return self._grounded(best, kind)

    def _best_fuzzy(self, text: str, threshold: float) -> tuple[float, int] | None:
        """The best trigram hit scoring at least ``threshold``, if any."""
        grams = char_trigrams(text)
        if len(grams) / (len(grams) + 1) < threshold <= 1.0:
            # Another trigram set scores at most |A| / (|A| + 1).
            position = self._trigram_sets.get(frozenset(grams))
            return None if position is None else (1.0, position)
        # A surface's ratio is at most its shared grams / |A|.
        if len(grams & self._trigram_postings.keys()) / len(grams) < threshold:
            return None
        return _best_surface(
            grams, self._trigram_postings, self._trigram_counts, threshold
        )

    def _grounded(self, best: tuple[float, int], match_kind: str) -> GroundedTerm:
        score, position = best
        term, surface = self._surfaces[position]
        return GroundedTerm(
            term=term,
            matched_text=surface,
            match_kind=match_kind,
            score=score,
        )

    def ground_question(self, question: str, max_ngram: int = 3) -> list[GroundedTerm]:
        """Ground every maximal matching phrase in ``question``.

        Scans word n-grams (longest first) and greedily consumes matched
        spans, so "labour market barometer" grounds as one term rather
        than three.
        """
        tokens = tokenize_text(question)
        consumed = [False] * len(tokens)
        grounded: list[GroundedTerm] = []
        # Repeated text is looked up once per call.
        hits: dict[str, GroundedTerm | None] = {}
        # Pass 1: exact term/synonym hits (all n-gram sizes, longest first),
        # so "working force" wins over a fuzzy "the working force" overlap.
        # Only a surface-index hit can be exact, so pass 1 reads the index
        # before paying for a lookup.  Pass 2 keeps a hit only at 0.999 for
        # one word and 0.5 for more, which lookup applies itself.
        for exact_only in (True, False):
            for size in range(min(max_ngram, len(tokens)), 0, -1):
                for start in range(0, len(tokens) - size + 1):
                    if any(consumed[start : start + size]):
                        continue
                    phrase = " ".join(tokens[start : start + size])
                    if exact_only and phrase not in self._surface_index:
                        continue
                    if phrase not in hits:
                        hits[phrase] = self.lookup(
                            phrase, min_score=0.999 if size == 1 else 0.5
                        )
                    hit = hits[phrase]
                    if hit is not None:
                        grounded.append(hit)
                        for position in range(start, start + size):
                            consumed[position] = True
        return grounded

    def expand(self, term_name: str) -> list[str]:
        """Canonical name plus all synonyms of a term (query expansion)."""
        term = self.term(term_name)
        return [term.name, *term.synonyms]
