"""Random-hyperplane LSH index.

Sign-random-projection LSH: each table hashes a vector to the sign
pattern of ``n_bits`` random hyperplanes.  Candidates are the union of the
query's buckets across tables, optionally widened by multi-probe (flip
one bit at a time) when the buckets are too sparse.  Fast, tunable, and —
like IVF/HNSW — guarantee-free in the per-query sense benchmark E1 cares
about.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VectorError
from repro.vector.base import SearchResult, VectorIndex
from repro.vector.dataset import VectorDataset
from repro.vector.distance import Metric, rowwise_distances


class LSHIndex(VectorIndex):
    """Multi-table sign-random-projection LSH."""

    name = "lsh"

    def __init__(
        self,
        n_tables: int = 8,
        n_bits: int = 12,
        metric: Metric = Metric.L2,
        seed: int = 0,
        multiprobe_bits: int = 1,
    ):
        super().__init__(metric)
        if n_tables <= 0 or n_bits <= 0:
            raise VectorError("n_tables and n_bits must be positive")
        if multiprobe_bits < 0:
            raise VectorError("multiprobe_bits must be >= 0")
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.multiprobe_bits = multiprobe_bits
        self._seed = seed
        self._hyperplanes: list[np.ndarray] = []
        self._tables: list[dict[int, list[int]]] = []

    def _build(self, dataset: VectorDataset) -> None:
        rng = np.random.default_rng(self._seed)
        self._hyperplanes = []
        self._tables = []
        centre = dataset.vectors.mean(axis=0)
        shifted = dataset.vectors - centre
        self._centre = centre
        for _ in range(self.n_tables):
            planes = rng.normal(size=(self.n_bits, dataset.dim))
            self._hyperplanes.append(planes)
            signatures = self._signatures(shifted, planes)
            table: dict[int, list[int]] = {}
            for position, signature in enumerate(signatures):
                table.setdefault(int(signature), []).append(position)
            self._tables.append(table)

    @staticmethod
    def _signatures(data: np.ndarray, planes: np.ndarray) -> np.ndarray:
        # einsum (not @) so a row's sign pattern is bit-identical whether
        # it is hashed alone or inside a batch (BLAS gemv/gemm accumulation
        # orders differ; einsum's does not depend on the batch size).
        bits = np.einsum("nd,bd->nb", data, planes) >= 0.0
        weights = 1 << np.arange(bits.shape[1])
        return bits @ weights

    def _expand_probes(self, signatures: list[int]) -> list[tuple[int, int]]:
        probes: list[tuple[int, int]] = []
        for table_index, signature in enumerate(signatures):
            probes.append((table_index, signature))
            for bit in range(min(self.multiprobe_bits, self.n_bits)):
                probes.append((table_index, signature ^ (1 << bit)))
        return probes

    def _candidate_positions(
        self, probes: list[tuple[int, int]]
    ) -> np.ndarray | None:
        """Union of bucket members; set order is the candidate order that
        breaks distance ties."""
        candidate_set: set[int] = set()
        for table_index, signature in probes:
            candidate_set.update(self._tables[table_index].get(signature, []))
        if not candidate_set:
            return None
        return np.fromiter(candidate_set, dtype=np.int64, count=len(candidate_set))

    def _search_batch(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """Batched LSH: per table, hash all queries with one kernel, then
        score every query's candidate union in one padded einsum."""
        shifted = queries - self._centre
        # (n_tables, batch) signature matrix: one hashing kernel per table.
        signature_columns = [
            self._signatures(shifted, planes) for planes in self._hyperplanes
        ]
        candidate_positions: list[np.ndarray | None] = []
        max_len = 0
        for row in range(len(queries)):
            signatures = [int(column[row]) for column in signature_columns]
            positions = self._candidate_positions(self._expand_probes(signatures))
            candidate_positions.append(positions)
            if positions is not None:
                max_len = max(max_len, len(positions))
        results: list[SearchResult] = []
        scored_rows = [
            row
            for row, positions in enumerate(candidate_positions)
            if positions is not None
        ]
        distance_matrix = None
        if scored_rows:
            padded = np.zeros((len(scored_rows), max_len), dtype=np.int64)
            for slot, row in enumerate(scored_rows):
                positions = candidate_positions[row]
                padded[slot, : len(positions)] = positions
            distance_matrix = rowwise_distances(
                queries[scored_rows], self.dataset.vectors[padded], self.metric
            )
        slot_of_row = {row: slot for slot, row in enumerate(scored_rows)}
        for row, positions in enumerate(candidate_positions):
            if positions is None:
                results.append(
                    SearchResult(
                        ids=[],
                        distances=[],
                        distance_computations=0,
                        candidates_visited=0,
                        metadata={"buckets_empty": True},
                    )
                )
                continue
            row_distances = distance_matrix[slot_of_row[row], : len(positions)]
            results.append(self._result_from_candidates(positions, row_distances, k))
        return results
