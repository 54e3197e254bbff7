"""Common index interface and search-result container.

Every index implements ``build(dataset)`` then ``search(query, k)``, a
one-row ``search_batch(queries, k)``.
Results carry the *work counters* (distance computations, candidates
visited) that make quality/efficiency trade-offs measurable independently
of the host machine — the paper's efficiency property is about bounded
resource consumption, so the resource usage must be observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DimensionMismatchError, IndexNotBuiltError
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.vector.dataset import VectorDataset
from repro.vector.distance import Metric, stable_top_k

# Work counters aggregated across every index (SearchResult keeps the
# per-query values; these fold them into the unified registry).
_SEARCHES = counter("vector.index.searches")
_DISTANCE_COMPUTATIONS = counter("vector.index.distance_computations")
_CANDIDATES_VISITED = counter("vector.index.candidates_visited")


@dataclass
class SearchResult:
    """Top-k answer with work counters and (optionally) a guarantee.

    ``guarantee_delta`` is set only by guarantee-providing indexes: the
    claimed upper bound on the probability that the returned set is not
    the true top-k.  ``empty_by_threshold`` flags the "return an empty set
    when no answer has the expected relevance" behaviour of Section 3.2.
    """

    ids: list
    distances: list[float]
    distance_computations: int
    candidates_visited: int = 0
    guarantee_delta: float | None = None
    empty_by_threshold: bool = False
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)


class VectorIndex:
    """Abstract base: shared build/search plumbing and validation."""

    #: Human-readable name used in benchmark output.
    name = "abstract"

    def __init__(self, metric: Metric = Metric.L2):
        self.metric = metric
        self._dataset: VectorDataset | None = None

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._dataset is not None

    @property
    def dataset(self) -> VectorDataset:
        """The indexed dataset (raises if not built)."""
        if self._dataset is None:
            raise IndexNotBuiltError(f"{self.name} index was not built")
        return self._dataset

    def build(self, dataset: VectorDataset) -> None:
        """Index ``dataset``; subclasses extend via :meth:`_build`."""
        self._dataset = dataset
        self._build(dataset)

    def _build(self, dataset: VectorDataset) -> None:
        """Subclass hook: construct index structures."""

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Return (approximately) the ``k`` nearest neighbours of ``query``.

        A one-row :meth:`search_batch`: there is one search path per index.
        """
        dataset = self.dataset
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != dataset.dim:
            raise DimensionMismatchError(
                f"query shape {query.shape} does not match dataset dim {dataset.dim}"
            )
        return self.search_batch(query[None, :], k)[0]

    def search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """Answer many queries at once; ``queries`` rows are query vectors.

        Returns one :class:`SearchResult` per row.  Subclasses implement
        either :meth:`_search_batch` (a kernel shared across the batch:
        brute force, IVF, LSH) or the per-query :meth:`_search` (graph and
        progressive traversals), which the default :meth:`_search_batch`
        loops over.
        """
        dataset = self.dataset
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != dataset.dim:
            raise DimensionMismatchError(
                f"queries shape {queries.shape} does not match dataset dim "
                f"{dataset.dim}"
            )
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, len(dataset))
        if len(queries) == 0:
            return []
        with span(
            "vector.index.search_batch", index=self.name, k=k, queries=len(queries)
        ) as batch_span:
            results = self._search_batch(queries, k)
            distance_computations = sum(
                result.distance_computations for result in results
            )
            candidates_visited = sum(
                result.candidates_visited for result in results
            )
            batch_span.set_attribute(
                "distance_computations", distance_computations
            )
            batch_span.set_attribute("candidates_visited", candidates_visited)
        _SEARCHES.inc(len(results))
        _DISTANCE_COMPUTATIONS.inc(distance_computations)
        _CANDIDATES_VISITED.inc(candidates_visited)
        return results

    def _search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        return [self._search(query, k) for query in queries]

    def _search(self, query: np.ndarray, k: int) -> SearchResult:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def _result_from_candidates(
        self, positions: np.ndarray, distances: np.ndarray, k: int
    ) -> SearchResult:
        """Rank scored candidate positions and package the top-k.

        Selects with :func:`stable_top_k`: the ranking of a full stable
        argsort (ties broken by candidate position) without sorting every
        candidate.  Each candidate was scored once, so the work charged is
        the candidate count.
        """
        order = stable_top_k(distances, k)
        return SearchResult(
            ids=[self.dataset.ids[int(position)] for position in positions[order]],
            distances=[float(distance) for distance in distances[order]],
            distance_computations=len(positions),
            candidates_visited=len(positions),
        )


def recall_at_k(approximate_ids: list, exact_ids: list) -> float:
    """Fraction of the exact top-k found by the approximate search."""
    if not exact_ids:
        return 1.0
    exact = set(exact_ids)
    hits = sum(1 for candidate in approximate_ids if candidate in exact)
    return hits / len(exact)
