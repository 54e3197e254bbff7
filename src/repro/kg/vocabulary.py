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

A question is tokenised once (:class:`QuestionTokens`), and
:meth:`DomainVocabulary.ground_question` skips every n-gram that an exact
bound rules out before it pays for a lookup (see :func:`_trigram_bound`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterator, Sequence
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
    Two filters settle most pairs before the programme: each edit changes
    the length by at most one and the character set's symmetric difference
    by at most two.
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
    # An edit changes the set of characters by at most one removal and one
    # addition (a transposition by none), so d edits leave character sets
    # whose symmetric difference has at most 2d members.
    if len(set(a).symmetric_difference(b)) > 2 * k:
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


def singularise(phrase: str) -> str:
    """``phrase`` with its last word made singular ("categories" -> "category")."""
    words = phrase.split()
    if not words:
        return phrase
    last = words[-1]
    if last.endswith("ies") and len(last) > 3:
        last = last[:-3] + "y"
    elif last.endswith("ses") and len(last) > 3:
        last = last[:-2]
    elif last.endswith("s") and not last.endswith("ss") and len(last) > 1:
        last = last[:-1]
    return " ".join(words[:-1] + [last])


class QuestionTokens:
    """One question's tokens and the facts grounding reads of them.

    Every consumer of a turn reads this one object instead of tokenising
    the question again: ``tokens`` are :func:`tokenize_text`'s, ``singular``
    each token made singular, and :meth:`grounding` is the question's
    :meth:`DomainVocabulary.ground_question`, computed once.  It lives as
    long as the turn that built it.
    """

    __slots__ = ("text", "tokens", "_singular", "_grounding")

    def __init__(self, text: str):
        self.text = text
        self.tokens = tuple(tokenize_text(text))
        self._singular: tuple[str, ...] | None = None
        self._grounding: tuple[DomainVocabulary, list[GroundedTerm]] | None = None

    @property
    def singular(self) -> tuple[str, ...]:
        if self._singular is None:
            # Only a word ending in "s" changes.
            self._singular = tuple(
                singularise(token) if token.endswith("s") else token
                for token in self.tokens
            )
        return self._singular

    def grounding(self, vocabulary: DomainVocabulary) -> list[GroundedTerm]:
        """``vocabulary.ground_question(self)``, grounded once per vocabulary."""
        if self._grounding is None or self._grounding[0] is not vocabulary:
            self._grounding = (vocabulary, vocabulary.ground_question(self))
        return self._grounding[1]


def exact_spans(
    tokens: Sequence[str],
    keys: Container[str],
    heads: AbstractSet[str],
    max_size: int,
    consumed: list[bool],
) -> Iterator[tuple[int, int, str]]:
    """``(start, size, phrase)`` of each word n-gram of ``tokens`` in ``keys``.

    N-grams of up to ``max_size`` words are probed longest first, then
    leftmost, skipping any that overlaps ``consumed``; each yielded span is
    marked consumed before the scan goes on.  A phrase joined from tokens
    equals a key only if its first token is the key's first word, so only
    n-grams starting at one of ``heads`` (every key's text before its first
    space) are joined and probed.
    """
    starts = [start for start, token in enumerate(tokens) if token in heads]
    for size in range(min(max_size, len(tokens)), 0, -1):
        for start in starts:
            end = start + size
            if end > len(tokens):
                break
            if any(consumed[start:end]):
                continue
            phrase = " ".join(tokens[start:end])
            if phrase in keys:
                consumed[start:end] = [True] * size
                yield start, size, phrase


def _trigram_bound(window: Sequence[tuple[int, set[str]]]) -> float:
    """An upper bound on any surface's trigram score against a phrase.

    ``window`` holds :meth:`DomainVocabulary._token_facts` of each token of
    the phrase ``t1 ... tn``, none of them held by any surface: the phrase is
    then no surface key and the token layer has no hit, so only the fuzzy
    layer can answer, at ``threshold = max(min_score, fuzzy_threshold)``.
    The padded phrase ``"  t1 ... tn "`` has the trigram set ``A``: the lead
    gram ``"  " + t1[0]``, each token's grams ``T(ti)`` (the trigrams of
    ``" " + ti + " "``, all inside the phrase) and at most ``n - 1`` grams
    across word boundaries.  With ``K`` the grams of the trigram postings, a
    surface shares at most ``|A & K| <= S = n + sum(|T(ti) & K|)`` grams with
    the phrase, and ``|A - K| >= U = |union(T(ti) - K)|``.  Its ratio
    ``shared / (|A| + |B| - shared)`` is at most ``|A & K| / |A|``, so at
    most ``S / (S + U)``, as ``x / (x + U)`` grows with ``x``.  Float
    division rounds monotonically, so a bound below ``threshold`` rules out
    every score ``_best_surface`` could keep.  On ``_best_fuzzy``'s
    equal-set branch (``|A| / (|A| + 1) < threshold``) a hit needs ``A``
    within ``K``: ``U == 0``, and a bound of 1.0, which no ``threshold <= 1``
    rules out.  A token of a thousand characters with one unknown gram is
    therefore still looked up: ``_best_surface`` may score it 0.999.
    """
    if len(window) == 1:
        known, missing = window[0]
        return known / (known + len(missing))
    known = 0
    unknown: set[str] = set()
    for count, missing in window:
        known += count
        unknown |= missing
    return known / (known + len(unknown))


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
        #: Each surface key's text before its first space (see :func:`exact_spans`).
        self._surface_heads: set[str] = set()
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
            surface_key = surface.lower().strip()
            self._surface_index[surface_key] = (key, kind)
            self._surface_heads.add(surface_key.partition(" ")[0])
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

    def ground_question(
        self, question: str | QuestionTokens, max_ngram: int = 3
    ) -> list[GroundedTerm]:
        """Ground every maximal matching phrase in ``question``.

        Scans word n-grams (longest first) and greedily consumes matched
        spans, so "labour market barometer" grounds as one term rather
        than three.  ``question`` is the text or its :class:`QuestionTokens`.
        """
        tokens = (
            question.tokens
            if isinstance(question, QuestionTokens)
            else tuple(tokenize_text(question))
        )
        consumed = [False] * len(tokens)
        grounded: list[GroundedTerm] = []
        # Pass 1: exact term/synonym hits (all n-gram sizes, longest first),
        # so "working force" wins over a fuzzy "the working force" overlap.
        # Only a surface-index hit can be exact, and its lookup always
        # passes: it scores 1.0.
        hits: dict[tuple[str, ...], GroundedTerm | None] = {}
        for start, size, phrase in exact_spans(
            tokens, self._surface_index, self._surface_heads, max_ngram, consumed
        ):
            key = tokens[start : start + size]
            if key not in hits:
                hits[key] = self.lookup(phrase, min_score=0.999 if size == 1 else 0.5)
            grounded.append(hits[key])
        # Pass 2: the rest, kept at 0.999 for one word and 0.5 for more, which
        # lookup applies itself.  Repeated text is looked up once per call, and
        # not at all where the trigram bound rules a hit out.
        facts = self._token_facts(tokens)
        for size in range(min(max_ngram, len(tokens)), 0, -1):
            min_score = 0.999 if size == 1 else 0.5
            threshold = max(min_score, self.fuzzy_threshold)
            for start in range(0, len(tokens) - size + 1):
                end = start + size
                window = facts[start:end]
                if None not in window and _trigram_bound(window) < threshold:
                    continue
                if any(consumed[start:end]):
                    continue
                key = tokens[start:end]
                if key not in hits:
                    hits[key] = self.lookup(" ".join(key), min_score)
                hit = hits[key]
                if hit is not None:
                    grounded.append(hit)
                    consumed[start:end] = [True] * size
        return grounded

    def _token_facts(
        self, tokens: Sequence[str]
    ) -> list[tuple[int, set[str]] | None]:
        """Per token, ``None`` if a surface holds it, else its trigram facts.

        The facts of a token ``t`` are ``(|T & K| + 1, T - K)``: ``T`` is the
        trigrams of ``" " + t + " "``, ``K`` the grams of the trigram postings,
        and the 1 stands for the gram before ``T`` in a phrase (see
        :func:`_trigram_bound`).  Each distinct token is trigrammed once.
        """
        known = self._trigram_postings.keys()
        by_token: dict[str, tuple[int, set[str]] | None] = {}
        for token in tokens:
            if token in by_token:
                continue
            if token in self._token_postings:
                by_token[token] = None
                continue
            padded = f" {token} "
            grams = {padded[i : i + 3] for i in range(len(padded) - 2)}
            missing = grams - known
            by_token[token] = (len(grams) - len(missing) + 1, missing)
        return [by_token[token] for token in tokens]

    def expand(self, term_name: str) -> list[str]:
        """Canonical name plus all synonyms of a term (query expansion)."""
        term = self.term(term_name)
        return [term.name, *term.synonyms]
