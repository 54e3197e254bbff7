"""Hybrid lexical + dense retrieval with reciprocal-rank fusion.

Section 3.2 calls for "effective dense representations ... in a unified
space" alongside classical retrieval.  The hybrid retriever runs BM25 and
a dense (hashing-embedder + brute-force cosine) ranker in parallel and
fuses the rankings with reciprocal-rank fusion (RRF) — robust to the two
scorers living on incomparable scales.  Benchmark E8 compares the three
against each other on dataset discovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.documents import DocumentStore
from repro.vector.base import VectorIndex
from repro.vector.brute import BruteForceIndex
from repro.vector.dataset import VectorDataset
from repro.vector.distance import Metric
from repro.vector.embedding import HashingEmbedder


@dataclass
class RetrievalHit:
    """One fused hit with its per-ranker evidence."""

    doc_id: str
    score: float
    lexical_rank: int | None = None
    dense_rank: int | None = None


# How many fused top-k hits each ranker contributed evidence for —
# the per-ranker share of hybrid retrieval (E8's quality axis, observed).
_HYBRID_QUERIES = counter("retrieval.hybrid.queries")
_LEXICAL_CONTRIBUTIONS = counter("retrieval.hybrid.lexical_contributions")
_DENSE_CONTRIBUTIONS = counter("retrieval.hybrid.dense_contributions")


def reciprocal_rank_fusion(
    rankings: list[list[str]], k: int = 60
) -> list[tuple[str, float]]:
    """RRF: score(d) = sum over rankings of 1/(k + rank(d))."""
    scores: dict[str, float] = {}
    for ranking in rankings:
        for position, doc_id in enumerate(ranking, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (k + position)
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


class HybridRetriever:
    """BM25 + dense retrieval fused by RRF."""

    def __init__(
        self,
        store: DocumentStore,
        embedder: HashingEmbedder | None = None,
        dense_index: VectorIndex | None = None,
        rrf_k: int = 60,
    ):
        self.store = store
        self.embedder = embedder if embedder is not None else HashingEmbedder(dim=96)
        self.rrf_k = rrf_k
        self.bm25 = BM25Index()
        self._dense = dense_index
        self._built = False

    def build(self) -> None:
        """Index the current contents of the document store."""
        self.bm25.build(self.store)
        documents = self.store.documents()
        if documents:
            matrix = self.embedder.embed_batch(
                [document.full_text for document in documents]
            )
            dataset = VectorDataset(
                vectors=matrix, ids=[document.doc_id for document in documents]
            )
            if self._dense is None:
                self._dense = BruteForceIndex(metric=Metric.COSINE)
            self._dense.build(dataset)
        self._built = True

    # -- single-ranker access (benchmark conditions) --------------------------------

    def search_lexical_batch(
        self, queries: list[str], k: int = 10
    ) -> list[list[RetrievalHit]]:
        """BM25-only rankings for several queries."""
        self._require_built()
        return [
            [
                RetrievalHit(doc_id=hit.doc_id, score=hit.score, lexical_rank=rank)
                for rank, hit in enumerate(ranking, start=1)
            ]
            for ranking in self.bm25.search_batch(queries, k)
        ]

    def search_dense(self, query: str, k: int = 10) -> list[RetrievalHit]:
        """Dense-only ranking (cosine over hashing embeddings)."""
        return self.search_dense_batch([query], k)[0]

    def search_dense_batch(
        self, queries: list[str], k: int = 10
    ) -> list[list[RetrievalHit]]:
        """Dense-only rankings: one batched embed and one batched search."""
        self._require_built()
        if self._dense is None or not self._dense.is_built:
            return [[] for _query in queries]
        embeddings = self.embedder.embed_batch(queries)
        results = self._dense.search_batch(embeddings, k)
        return [
            [
                RetrievalHit(doc_id=doc_id, score=-distance, dense_rank=rank)
                for rank, (doc_id, distance) in enumerate(
                    zip(result.ids, result.distances), start=1
                )
            ]
            for result in results
        ]

    # -- fused access ------------------------------------------------------------------

    def search(self, query: str, k: int = 10) -> list[RetrievalHit]:
        """Hybrid RRF ranking."""
        return self.search_batch([query], k)[0]

    def search_batch(
        self, queries: list[str], k: int = 10
    ) -> list[list[RetrievalHit]]:
        """Hybrid RRF rankings for a batch of queries.

        The dense side embeds and searches the whole batch with single
        kernel launches; the lexical side shares one materialised posting
        array build.  Per-query fusion is unchanged, so each row equals
        the single-query :meth:`search` result.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        self._require_built()
        pool = max(k * 3, 10)
        with span(
            "retrieval.hybrid.search", queries=len(queries), k=k
        ) as hybrid_span:
            with span("retrieval.bm25.search", queries=len(queries)):
                lexical_rankings = self.search_lexical_batch(queries, pool)
            with span("retrieval.dense.search", queries=len(queries)):
                dense_rankings = self.search_dense_batch(queries, pool)
            fused_rankings = []
            lexical_contributions = dense_contributions = 0
            for lexical, dense in zip(lexical_rankings, dense_rankings):
                fused = reciprocal_rank_fusion(
                    [[hit.doc_id for hit in lexical], [hit.doc_id for hit in dense]],
                    k=self.rrf_k,
                )
                lexical_ranks = {hit.doc_id: hit.lexical_rank for hit in lexical}
                dense_ranks = {hit.doc_id: hit.dense_rank for hit in dense}
                fused_hits = [
                    RetrievalHit(
                        doc_id=doc_id,
                        score=score,
                        lexical_rank=lexical_ranks.get(doc_id),
                        dense_rank=dense_ranks.get(doc_id),
                    )
                    for doc_id, score in fused[:k]
                ]
                lexical_contributions += sum(
                    1 for hit in fused_hits if hit.lexical_rank is not None
                )
                dense_contributions += sum(
                    1 for hit in fused_hits if hit.dense_rank is not None
                )
                fused_rankings.append(fused_hits)
            hybrid_span.set_attribute("lexical_contributions", lexical_contributions)
            hybrid_span.set_attribute("dense_contributions", dense_contributions)
        _HYBRID_QUERIES.inc(len(queries))
        _LEXICAL_CONTRIBUTIONS.inc(lexical_contributions)
        _DENSE_CONTRIBUTIONS.inc(dense_contributions)
        return fused_rankings

    def _require_built(self) -> None:
        if not self._built:
            self.build()
