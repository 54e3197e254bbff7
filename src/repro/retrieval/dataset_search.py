"""Dataset discovery over the registry's metadata documents.

The system's answer to "give me an overview of the working force in
Switzerland" starts here: rank registered data sources against the
topical request, return the best with their descriptions and relevance
scores so the conversational layer can offer them (P5) with provenance
(P4).  Stale sources are filtered out — discovery never proposes rotten
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kg.vocabulary import DomainVocabulary
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.retrieval.hybrid import HybridRetriever

if TYPE_CHECKING:  # registry imports retrieval; keep this edge type-only
    from repro.datasets.registry import DataSourceInfo, DataSourceRegistry


@dataclass
class DatasetHit:
    """One discovered data source."""

    info: "DataSourceInfo"
    score: float
    matched_via: str  # "hybrid" | "lexical" | "dense"


_DISCOVERY_QUERIES = counter("retrieval.discovery.queries")


class DatasetSearchEngine:
    """Hybrid retrieval over data-source metadata."""

    def __init__(
        self,
        registry: "DataSourceRegistry",
        vocabulary: DomainVocabulary | None = None,
        mode: str = "hybrid",
    ):
        if mode not in ("hybrid", "lexical", "dense"):
            raise ValueError("mode must be hybrid, lexical or dense")
        self.registry = registry
        self.vocabulary = vocabulary
        self.mode = mode
        self._retriever = HybridRetriever(registry.metadata_documents)
        self._retriever.build()

    def rebuild(self) -> None:
        """Re-index after new sources were registered."""
        self._retriever = HybridRetriever(self.registry.metadata_documents)
        self._retriever.build()

    def _expand_query(self, query: str) -> str:
        """Append vocabulary synonyms of grounded terms (query expansion)."""
        if self.vocabulary is None:
            return query
        expansions: list[str] = []
        for grounded in self.vocabulary.ground_question(query):
            expansions.extend(self.vocabulary.expand(grounded.term.name))
        if not expansions:
            return query
        return query + " " + " ".join(expansions)

    def search(self, query: str, k: int = 5) -> list[DatasetHit]:
        """Top-k fresh data sources for a topical request."""
        return self.search_batch([query], k)[0]

    def search_batch(self, queries: list[str], k: int = 5) -> list[list[DatasetHit]]:
        """Discovery for a batch of topical requests.

        This is the batched retrieval hot path end to end: queries are
        expanded, embedded and ranked together (one kernel launch per
        stage on the dense side, one postings materialisation on the
        lexical side), then filtered per query.  The single-query
        :meth:`search` is a one-row batch, so both paths rank
        identically.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not queries:
            return []
        _DISCOVERY_QUERIES.inc(len(queries))
        with span(
            "retrieval.discovery.search", mode=self.mode, queries=len(queries)
        ) as discovery_span:
            expanded = [self._expand_query(query) for query in queries]
            if self.mode == "lexical":
                with span("retrieval.bm25.search", queries=len(queries)):
                    raw_rankings = self._retriever.search_lexical_batch(
                        expanded, k * 2
                    )
            elif self.mode == "dense":
                with span("retrieval.dense.search", queries=len(queries)):
                    raw_rankings = self._retriever.search_dense_batch(
                        expanded, k * 2
                    )
            else:
                raw_rankings = self._retriever.search_batch(expanded, k * 2)
            rankings = [self._filter_hits(raw_hits, k) for raw_hits in raw_rankings]
            discovery_span.set_attribute(
                "hits", sum(len(ranking) for ranking in rankings)
            )
        return rankings

    def _filter_hits(self, raw_hits, k: int) -> list[DatasetHit]:
        """Keep registered, fresh sources — discovery never proposes rot."""
        results: list[DatasetHit] = []
        for hit in raw_hits:
            if hit.doc_id not in self.registry:
                continue
            info = self.registry.info(hit.doc_id)
            if info.stale:
                continue
            results.append(
                DatasetHit(info=info, score=hit.score, matched_via=self.mode)
            )
            if len(results) >= k:
                break
        return results

    def suggestions_for_prose(self, query: str, k: int = 3) -> list[tuple[str, str, float]]:
        """(name, description, score) triples for the answer generator."""
        return [
            (hit.info.name, hit.info.description, hit.score)
            for hit in self.search(query, k)
        ]
