"""Exact brute-force search: the quality reference for every other index.

Also supports a relevance threshold: when ``max_distance`` is set and even
the best match is farther than it, the index returns an *empty* result —
the paper's requirement that a retrieval component "be able to return an
empty set, when no answer exists with a given expected relevance"
(Section 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.vector.base import SearchResult, VectorIndex
from repro.vector.distance import Metric, pairwise_distances_batch


class BruteForceIndex(VectorIndex):
    """Exact linear-scan k-NN."""

    name = "brute"

    def __init__(self, metric: Metric = Metric.L2, max_distance: float | None = None):
        super().__init__(metric)
        self.max_distance = max_distance

    def _search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """All queries against all data in one kernel launch.

        One broadcast distance computation produces the full
        ``(batch, n)`` matrix; per row, the top-k is taken with
        ``argpartition`` plus a tie repair (:func:`stable_top_k`).
        """
        data = self.dataset.vectors
        distance_matrix = pairwise_distances_batch(queries, data, self.metric)
        positions = np.arange(len(data))
        return [
            self._finish(self._result_from_candidates(positions, row, k))
            for row in distance_matrix
        ]

    def _finish(self, result: SearchResult) -> SearchResult:
        result.guarantee_delta = 0.0  # exact: zero probability of error
        if self.max_distance is not None:
            kept = [
                (identifier, distance)
                for identifier, distance in zip(result.ids, result.distances)
                if distance <= self.max_distance
            ]
            if len(kept) < len(result.ids):
                result.ids = [identifier for identifier, _distance in kept]
                result.distances = [distance for _identifier, distance in kept]
                result.empty_by_threshold = not kept
        return result
