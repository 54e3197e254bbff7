"""Okapi BM25 lexical ranking.

The standard probabilistic ranking function (k1/b parametrisation) over
the document store, built on an inverted index so scoring touches only
documents containing at least one query term.

Scoring is vectorised: per-document length normalisers are precomputed at
build/add time, postings are materialised as numpy (row, frequency)
arrays, query terms accumulate into a dense score vector with fancy
indexing, and the top-k is taken with ``argpartition`` instead of sorting
every scored document.  The ranking — score descending, then ``doc_id``
ascending — is identical to the original per-document Python loop, and
``tests/test_batch_parity.py`` asserts as much against a reference
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CDAError
from repro.obs.metrics import counter
from repro.retrieval.documents import Document, DocumentStore
from repro.vector.embedding import tokenize_text


@dataclass
class ScoredDocument:
    """One ranked hit."""

    doc_id: str
    score: float


_QUERIES = counter("retrieval.bm25.queries")


class BM25Index:
    """Inverted-index BM25 over a :class:`DocumentStore`."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 <= 0 or not (0.0 <= b <= 1.0):
            raise CDAError("k1 must be > 0 and b in [0, 1]")
        self.k1 = k1
        self.b = b
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_lengths: dict[str, int] = {}
        # doc_id -> its distinct terms, so re-adding a document can remove
        # exactly its old postings without scanning the vocabulary.
        self._doc_terms: dict[str, tuple[str, ...]] = {}
        self._total_length = 0
        self._average_length = 0.0
        self._n_documents = 0
        # -- materialised scoring arrays (rebuilt lazily on first search) --
        self._dirty = True
        self._doc_ids: list[str] = []
        self._doc_rows: dict[str, int] = {}
        self._length_norms: np.ndarray = np.empty(0, dtype=np.float64)
        self._term_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def build(self, store: DocumentStore) -> None:
        """Index every document currently in ``store``."""
        self._postings.clear()
        self._doc_lengths.clear()
        self._doc_terms.clear()
        self._total_length = 0
        for document in store.documents():
            self._index_document(document)
        self._refresh_statistics()

    def add_document(self, document: Document) -> None:
        """Incrementally index one more document.

        Re-adding an existing ``doc_id`` replaces the old version: its
        postings and length contribution are removed first, so neither
        stale term entries nor a corrupted average length survive.
        """
        if document.doc_id in self._doc_lengths:
            self._remove_document(document.doc_id)
        self._index_document(document)
        self._refresh_statistics()

    def _index_document(self, document: Document) -> None:
        tokens = tokenize_text(document.full_text)
        self._doc_lengths[document.doc_id] = len(tokens)
        self._total_length += len(tokens)
        frequencies: dict[str, int] = {}
        for token in tokens:
            frequencies[token] = frequencies.get(token, 0) + 1
        for token, frequency in frequencies.items():
            self._postings.setdefault(token, {})[document.doc_id] = frequency
        self._doc_terms[document.doc_id] = tuple(frequencies)

    def _remove_document(self, doc_id: str) -> None:
        self._total_length -= self._doc_lengths.pop(doc_id)
        for term in self._doc_terms.pop(doc_id, ()):
            postings = self._postings.get(term)
            if postings is None:
                continue
            postings.pop(doc_id, None)
            if not postings:
                del self._postings[term]

    def _refresh_statistics(self) -> None:
        self._n_documents = len(self._doc_lengths)
        self._average_length = (
            self._total_length / self._n_documents if self._n_documents else 0.0
        )
        self._dirty = True

    def _materialise(self) -> None:
        """Rebuild the array form of the index after any mutation.

        Lengths feed the precomputed per-document normaliser
        ``1 - b + b * len/avg_len`` (the only per-document quantity BM25
        needs at query time); each term's postings become parallel
        (row, frequency) arrays for vectorised accumulation.
        """
        self._doc_ids = list(self._doc_lengths)
        self._doc_rows = {doc_id: row for row, doc_id in enumerate(self._doc_ids)}
        if self._doc_ids and self._average_length:
            lengths = np.array(
                [self._doc_lengths[doc_id] for doc_id in self._doc_ids],
                dtype=np.float64,
            )
            self._length_norms = (
                1.0 - self.b + self.b * (lengths / self._average_length)
            )
        else:
            self._length_norms = np.zeros(len(self._doc_ids), dtype=np.float64)
        self._term_arrays = {}
        for term, postings in self._postings.items():
            row_indices = np.fromiter(
                (self._doc_rows[doc_id] for doc_id in postings),
                dtype=np.intp,
                count=len(postings),
            )
            frequencies = np.fromiter(
                postings.values(), dtype=np.float64, count=len(postings)
            )
            self._term_arrays[term] = (row_indices, frequencies)
        self._dirty = False

    def _idf(self, term: str) -> float:
        containing = len(self._postings.get(term, {}))
        # BM25+-style floor at 0 avoids negative IDF for very common terms.
        return max(
            0.0,
            math.log(
                (self._n_documents - containing + 0.5) / (containing + 0.5) + 1.0
            ),
        )

    def search(self, query: str, k: int = 10) -> list[ScoredDocument]:
        """Top-k documents for ``query`` by BM25 score."""
        if k <= 0:
            raise ValueError("k must be positive")
        _QUERIES.inc()
        if self._n_documents == 0:
            return []
        if self._dirty:
            self._materialise()
        scores = np.zeros(len(self._doc_ids), dtype=np.float64)
        touched = np.zeros(len(self._doc_ids), dtype=bool)
        for term in tokenize_text(query):
            entry = self._term_arrays.get(term)
            if entry is None:
                continue
            row_indices, frequencies = entry
            idf = self._idf(term)
            # A document appears at most once per term, so plain fancy-
            # index accumulation is safe (no np.add.at needed).
            scores[row_indices] += idf * (
                frequencies * (self.k1 + 1.0)
                / (frequencies + self.k1 * self._length_norms[row_indices])
            )
            touched[row_indices] = True
        candidates = np.flatnonzero(touched)
        if not len(candidates):
            return []
        if k < len(candidates):
            candidate_scores = scores[candidates]
            part = np.argpartition(-candidate_scores, k - 1)[:k]
            threshold = candidate_scores[part].min()
            # Keep every score tied at the boundary so the doc_id
            # tie-break below sees the same pool a full sort would.
            candidates = candidates[candidate_scores >= threshold]
        ranked = sorted(
            ((self._doc_ids[row], float(scores[row])) for row in candidates),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return [ScoredDocument(doc_id=d, score=s) for d, s in ranked[:k]]

    def search_batch(self, queries: list[str], k: int = 10) -> list[list[ScoredDocument]]:
        """Rank several queries; scoring arrays are materialised once."""
        if self._n_documents and self._dirty:
            self._materialise()
        return [self.search(query, k) for query in queries]
