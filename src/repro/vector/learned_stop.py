"""Learning-augmented early termination for IVF search.

After Li et al. [34] ("Improving Approximate Nearest Neighbor Search
through Learned Adaptive Early Termination"): instead of probing a fixed
``n_probe`` posting lists for every query, learn from training queries how
many probes *this* query needs to recover the exact top-k, and probe only
that many.

The predictor is deliberately simple — ridge regression on cheap
query-time features (nearest-centroid distance, centroid-gap ratio, mean
centroid distance) targeting ``log(1 + probes_needed)`` — because the
point the paper makes (Section 3.2, learning-augmented algorithms) is
architectural: a learned model making pruning decisions inside a
classical index.  Benchmark E1 compares it against fixed-``n_probe`` IVF
at equal recall.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexNotBuiltError, VectorError
from repro.vector.base import SearchResult
from repro.vector.distance import pairwise_distances, pairwise_distances_batch
from repro.vector.ivf import IVFIndex


class LearnedStopIVFIndex(IVFIndex):
    """IVF whose per-query probe count is predicted by a learned model."""

    name = "learned_stop"

    def __init__(
        self,
        n_lists: int = 32,
        metric=None,
        seed: int = 0,
        ridge_lambda: float = 1e-3,
        safety_margin: float = 1.0,
    ):
        kwargs = {"n_lists": n_lists, "n_probe": 1, "seed": seed}
        if metric is not None:
            kwargs["metric"] = metric
        super().__init__(**kwargs)
        self.ridge_lambda = ridge_lambda
        #: Multiplier on the predicted probe count; >1 trades work for recall.
        self.safety_margin = safety_margin
        self._weights: np.ndarray | None = None

    # -- features ---------------------------------------------------------------------

    def _features(
        self, query: np.ndarray, centroid_distances: np.ndarray | None = None
    ) -> np.ndarray:
        assert self._centroids is not None
        if centroid_distances is None:
            centroid_distances = pairwise_distances(
                query, self._centroids, self.metric
            )
        ordered = np.sort(centroid_distances)
        nearest = float(ordered[0])
        second = float(ordered[1]) if len(ordered) > 1 else nearest
        gap_ratio = nearest / second if second > 0 else 1.0
        mean_distance = float(centroid_distances.mean())
        spread = float(centroid_distances.std())
        return np.array([1.0, nearest, gap_ratio, mean_distance, spread])

    # -- training ----------------------------------------------------------------------

    def probes_needed(self, query: np.ndarray, k: int) -> int:
        """Minimal number of probes whose union covers the exact top-k."""
        if self._centroids is None:
            raise IndexNotBuiltError("train after build")
        data = self.dataset.vectors
        exact_distances = pairwise_distances(query, data, self.metric)
        exact_top = set(np.argsort(exact_distances, kind="stable")[:k].tolist())
        order, _work = self.probe_order(query)
        covered: set[int] = set()
        for probe_count, list_id in enumerate(order, start=1):
            covered.update(int(p) for p in self._lists[int(list_id)])
            if exact_top <= covered:
                return probe_count
        return len(order)

    def train(self, training_queries: np.ndarray, k: int) -> None:
        """Fit the probe predictor on ``training_queries`` (rows are queries)."""
        if self._centroids is None:
            raise IndexNotBuiltError("build the index before training")
        if training_queries.ndim != 2:
            raise VectorError("training_queries must be a 2-d matrix")
        if len(training_queries) < 5:
            raise VectorError("need at least 5 training queries")
        features = np.stack([self._features(query) for query in training_queries])
        targets = np.array(
            [
                np.log1p(self.probes_needed(query, k))
                for query in training_queries
            ]
        )
        gram = features.T @ features
        gram += self.ridge_lambda * np.eye(gram.shape[0])
        self._weights = np.linalg.solve(gram, features.T @ targets)

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return self._weights is not None

    def predict_probes(
        self, query: np.ndarray, centroid_distances: np.ndarray | None = None
    ) -> int:
        """Predicted number of probes for ``query`` (clamped to [1, n_lists])."""
        if self._weights is None:
            raise IndexNotBuiltError("the probe predictor was not trained")
        raw = float(self._features(query, centroid_distances) @ self._weights)
        probes = int(np.ceil(self.safety_margin * np.expm1(max(raw, 0.0))))
        return int(np.clip(probes, 1, len(self._lists)))

    # -- search ------------------------------------------------------------------------

    def _search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """Batched learned-stop search: one centroid-distance kernel feeds
        both the probe predictor's features and the probe ordering, then
        the (per-query ragged) probe sets are scored with the IVF padded
        batch scan."""
        if self._weights is None:
            raise IndexNotBuiltError("the probe predictor was not trained")
        assert self._centroids is not None
        centroid_distances = pairwise_distances_batch(
            queries, self._centroids, self.metric
        )
        base_work = len(self._centroids)
        probe_counts = [
            self.predict_probes(query, row)
            for query, row in zip(queries, centroid_distances)
        ]
        list_ids_per_query = [
            np.argsort(row, kind="stable")[:probes]
            for row, probes in zip(centroid_distances, probe_counts)
        ]
        results = self._scan_lists_batch(
            queries, k, list_ids_per_query, base_work
        )
        for result, probes in zip(results, probe_counts):
            result.metadata["predicted_probes"] = probes
        return results
