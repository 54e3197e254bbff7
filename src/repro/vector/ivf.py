"""Inverted-file (IVF) index: k-means coarse quantizer + posting lists.

The canonical fast-but-unguaranteed approximate index.  ``nprobe``
controls the recall/latency knob benchmark E1 sweeps; the learned-stop
index (:mod:`repro.vector.learned_stop`) extends this class with a
per-query probe predictor.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VectorError
from repro.vector.base import SearchResult, VectorIndex
from repro.vector.dataset import VectorDataset
from repro.vector.distance import Metric, pairwise_distances_batch, squared_norms
from repro.vector.kmeans import kmeans


class IVFIndex(VectorIndex):
    """IVF with a k-means coarse quantizer."""

    name = "ivf"

    def __init__(
        self,
        n_lists: int = 32,
        n_probe: int = 4,
        metric: Metric = Metric.L2,
        seed: int = 0,
    ):
        super().__init__(metric)
        if n_lists <= 0:
            raise VectorError("n_lists must be positive")
        if n_probe <= 0:
            raise VectorError("n_probe must be positive")
        self.n_lists = n_lists
        self.n_probe = n_probe
        self._seed = seed
        self._centroids: np.ndarray | None = None
        self._lists: list[np.ndarray] = []
        self._list_vectors: list[np.ndarray] = []
        self._list_sizes: np.ndarray = np.empty(0, dtype=np.int64)
        self._list_columns: list[np.ndarray] = []
        self._concat_positions: np.ndarray = np.empty(0, dtype=np.int64)
        self._list_offsets: np.ndarray = np.empty(0, dtype=np.int64)
        self._point_sq_norms: np.ndarray = np.empty(0, dtype=np.float64)
        self._point_norms: np.ndarray = np.empty(0, dtype=np.float64)

    def _build(self, dataset: VectorDataset) -> None:
        rng = np.random.default_rng(self._seed)
        n_lists = min(self.n_lists, len(dataset))
        result = kmeans(dataset.vectors, n_lists, rng)
        self._centroids = result.centroids
        self._lists = [
            np.flatnonzero(result.assignments == cluster) for cluster in range(n_lists)
        ]
        # Batch-scan precomputation: contiguous per-list vector blocks (so
        # the grouped einsum never re-gathers a posting list), list sizes,
        # column aranges, and per-point norms.  Copies of the same floats
        # that :func:`pairwise_distances_batch` would reduce.
        self._list_vectors = [dataset.vectors[members] for members in self._lists]
        self._list_sizes = np.array(
            [len(members) for members in self._lists], dtype=np.int64
        )
        self._list_columns = [
            np.arange(len(members), dtype=np.int64) for members in self._lists
        ]
        self._concat_positions = (
            np.concatenate(self._lists) if self._lists else np.empty(0, dtype=np.int64)
        )
        self._list_offsets = np.concatenate(
            ([0], np.cumsum(self._list_sizes))
        )[:-1]
        self._point_sq_norms = squared_norms(dataset.vectors)
        self._point_norms = np.linalg.norm(dataset.vectors, axis=1)

    def probe_order(self, query: np.ndarray) -> tuple[np.ndarray, int]:
        """Posting lists sorted by centroid distance, plus the work done."""
        orders, centroid_work = self.probe_order_batch(query[None, :])
        return orders[0], centroid_work

    def probe_order_batch(self, queries: np.ndarray) -> tuple[list[np.ndarray], int]:
        """Per-query probe orders from one batched centroid-distance kernel."""
        assert self._centroids is not None
        centroid_distances = pairwise_distances_batch(
            queries, self._centroids, self.metric
        )
        order_matrix = np.argsort(centroid_distances, axis=1, kind="stable")
        return list(order_matrix), len(self._centroids)

    def search_with_probes(
        self, query: np.ndarray, k: int, n_probe: int
    ) -> SearchResult:
        """Search probing exactly ``n_probe`` posting lists."""
        order, centroid_work = self.probe_order(query)
        return self._scan_lists_batch(
            query[None, :], k, [order[:n_probe]], centroid_work
        )[0]

    def _scan_lists_batch(
        self,
        queries: np.ndarray,
        k: int,
        list_ids_per_query: list[np.ndarray],
        base_work: int,
    ) -> list[SearchResult]:
        """Score every query's probed posting lists list-centrically.

        The scan is grouped by posting list, not by query: each probed
        list's vectors are scored against *all* queries probing it with
        one einsum, then the dot products are scattered into a padded
        ``(batch, max_len)`` matrix laid out in each query's probe order.
        Every einsum output element reduces only over the vector
        dimension, so grouping by list instead of by query cannot change
        a single bit of any distance; candidate order within a query is
        probe order, then list order, and distance ties are broken by it
        (as a full stable argsort of a per-query scan would).  Pads are
        forced to ``+inf`` and sliced off before ranking, and work is
        charged only for real candidates.
        """
        n_queries = len(queries)
        probes_per_query = [len(list_ids) for list_ids in list_ids_per_query]
        # Flat probe layout: entry j is one (query, posting list) pair, in
        # each query's probe order.  ``offsets`` is where that list's
        # block starts inside its query's candidate row.
        flat_lists = (
            np.concatenate(
                [np.asarray(ids, dtype=np.int64) for ids in list_ids_per_query]
            )
            if any(probes_per_query)
            else np.empty(0, dtype=np.int64)
        )
        probe_rows = np.repeat(np.arange(n_queries), probes_per_query)
        sizes = self._list_sizes[flat_lists]
        cumulative = np.cumsum(sizes)
        lengths = np.bincount(
            probe_rows, weights=sizes, minlength=n_queries
        ).astype(np.int64)
        max_len = int(lengths.max()) if n_queries else 0
        if max_len == 0:
            return [
                SearchResult(
                    ids=[],
                    distances=[],
                    distance_computations=base_work,
                    candidates_visited=0,
                    metadata={"probes": probes},
                )
                for probes in probes_per_query
            ]
        valid = np.arange(max_len)[None, :] < lengths[:, None]
        # Each query's candidates are one contiguous flat segment, so
        # everything up to the final ranking works on flat 1-d arrays —
        # no arithmetic is ever spent on pad cells.  Positions come from
        # one gather out of the build-time list concatenation.
        flat_starts = cumulative - sizes
        total = int(cumulative[-1]) if len(cumulative) else 0
        flat_positions = self._concat_positions[
            np.repeat(self._list_offsets[flat_lists] - flat_starts, sizes)
            + np.arange(total)
        ]
        candidate_rows = np.repeat(np.arange(n_queries), lengths)
        # Group probe entries by posting list: each probed list is scored
        # against all queries probing it with one einsum, and the dot
        # products are scattered to those queries' (disjoint) flat slots.
        flat_dots = np.empty(len(flat_positions), dtype=np.float64)
        group_order = np.argsort(flat_lists, kind="stable")
        sorted_lists = flat_lists[group_order]
        boundaries = np.flatnonzero(np.diff(sorted_lists)) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_ends = np.concatenate((boundaries, [len(group_order)]))
        for start, end in zip(group_starts, group_ends):
            group = group_order[start:end]
            list_id = int(sorted_lists[start])
            if not self._list_sizes[list_id]:
                continue
            rows = probe_rows[group]
            block_dots = np.einsum(
                "nd,qd->qn", self._list_vectors[list_id], queries[rows]
            )
            targets = (
                flat_starts[group][:, None] + self._list_columns[list_id][None, :]
            )
            flat_dots[targets] = block_dots
        flat_distances = self._distances_from_dots(
            queries, flat_positions, candidate_rows, flat_dots
        )
        # Pad to (batch, max_len) only for the ranking step; pads are
        # +inf, above every real candidate.
        distance_matrix = np.full((n_queries, max_len), np.inf)
        distance_matrix[valid] = flat_distances
        # Vectorised top-k: one row-wise value partition finds the k-th
        # smallest distance per query; the per-row tie repair then
        # reproduces ``stable_top_k`` exactly (ties broken by candidate
        # position, the same value-then-position order a full stable
        # argsort would produce).
        if max_len > k:
            thresholds = np.partition(distance_matrix, k - 1, axis=1)[:, k - 1]
        else:
            thresholds = np.full(n_queries, np.inf)
        # One flat pass finds every at-or-below-threshold candidate (no
        # pads to mask out here: thresholds only compare real cells);
        # each query's keeps are then delimited with searchsorted, and
        # flat order within a query is candidate order, so the stable
        # sort below breaks distance ties exactly like ``stable_top_k``.
        kept_indices = np.flatnonzero(
            flat_distances <= thresholds[candidate_rows]
        )
        kept_row_ids = candidate_rows[kept_indices]
        row_bounds = np.searchsorted(kept_row_ids, np.arange(n_queries + 1))
        ids = self.dataset.ids
        results: list[SearchResult] = []
        for row in range(n_queries):
            length = int(lengths[row])
            if length == 0:
                results.append(
                    SearchResult(
                        ids=[],
                        distances=[],
                        distance_computations=base_work,
                        candidates_visited=0,
                        metadata={"probes": probes_per_query[row]},
                    )
                )
                continue
            kept = kept_indices[row_bounds[row] : row_bounds[row + 1]]
            order = kept[np.argsort(flat_distances[kept], kind="stable")[:k]]
            positions = flat_positions[order]
            results.append(
                SearchResult(
                    ids=[ids[position] for position in positions.tolist()],
                    distances=flat_distances[order].tolist(),
                    distance_computations=base_work + length,
                    candidates_visited=length,
                    metadata={"probes": probes_per_query[row]},
                )
            )
        return results

    def _distances_from_dots(
        self,
        queries: np.ndarray,
        flat_positions: np.ndarray,
        candidate_rows: np.ndarray,
        flat_dots: np.ndarray,
    ) -> np.ndarray:
        """Finish flat distances from scattered dot products, elementwise.

        Mirrors :func:`pairwise_distances_batch` per metric exactly: the
        same operations in the same grouping — ``(|q|^2 + |x|^2) - 2 q.x``
        for L2 — with per-point norms gathered from one whole-dataset
        reduction (each norm reduces a single row, so the gathered floats
        equal the ones a per-candidate reduction would produce), and the
        per-query terms gathered through ``candidate_rows`` (the same
        floats broadcasting would pair with each cell).  All arithmetic is
        in-place on flat buffers, so no work is spent on pad cells.
        """
        if self.metric is Metric.L2:
            query_sq = np.einsum("qd,qd->q", queries, queries)
            squared = self._point_sq_norms[flat_positions]
            # In-place (|q|^2 + |x|^2) - 2 q.x: addition commutes bitwise,
            # and the grouping matches the batch kernel exactly.
            squared += query_sq[candidate_rows]
            flat_dots *= 2.0
            squared -= flat_dots
            np.maximum(squared, 0.0, out=squared)
            return np.sqrt(squared, out=squared)
        if self.metric is Metric.COSINE:
            query_norms = np.sqrt(np.einsum("qd,qd->q", queries, queries))
            denominator = self._point_norms[flat_positions]
            denominator *= query_norms[candidate_rows]
            similarities = np.zeros_like(flat_dots)
            nonzero = denominator > 0
            similarities[nonzero] = flat_dots[nonzero] / denominator[nonzero]
            return 1.0 - similarities
        if self.metric is Metric.INNER_PRODUCT:
            return -flat_dots
        raise ValueError(f"unknown metric {self.metric}")

    def _search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        n_probe = min(self.n_probe, len(self._lists))
        orders, base_work = self.probe_order_batch(queries)
        return self._scan_lists_batch(
            queries, k, [order[:n_probe] for order in orders], base_work
        )
