"""HNSW-style hierarchical graph index.

A faithful (if compact) implementation of the Hierarchical Navigable
Small World graph: exponentially-distributed layer assignment, greedy
descent through upper layers, beam search (``ef``) at the base layer.
Fast with high recall, but — as the paper stresses — with *no* quality
guarantee: benchmark E1 contrasts it with the progressive index.

Each frontier expansion scores every unvisited neighbour with one
:func:`pairwise_distances` call, then replays the heap updates edge by
edge in adjacency order, charging ``_distance_counter`` once per vector
scored.  ``tests/test_batch_parity.py`` pins graphs, answers and work
counters to a golden fixture and checks recall against brute force.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import VectorError
from repro.vector.base import SearchResult, VectorIndex
from repro.vector.dataset import VectorDataset
from repro.vector.distance import Metric, pairwise_distances


class HNSWIndex(VectorIndex):
    """Hierarchical navigable small-world graph."""

    name = "hnsw"

    def __init__(
        self,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: int = 32,
        metric: Metric = Metric.L2,
        seed: int = 0,
    ):
        super().__init__(metric)
        if m < 2:
            raise VectorError("m must be >= 2")
        if ef_construction < 1 or ef_search < 1:
            raise VectorError("ef parameters must be >= 1")
        self.m = m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._seed = seed
        self._level_multiplier = 1.0 / math.log(m)
        # _graph[level][node] -> list of neighbour nodes
        self._graph: list[dict[int, list[int]]] = []
        self._entry_point: int | None = None
        self._distance_counter = 0

    # -- distance with work counting -----------------------------------------------

    def _distance_many(self, query: np.ndarray, nodes: list[int]) -> np.ndarray:
        """Distances from ``query`` to several nodes in one kernel call.

        Charges the work counter per vector scored — ``len(nodes)`` — so
        E1's machine-independent accounting is unchanged by batching.
        """
        self._distance_counter += len(nodes)
        return pairwise_distances(
            query, self.dataset.vectors[np.asarray(nodes, dtype=np.int64)],
            self.metric,
        )

    # -- construction -----------------------------------------------------------------

    def _build(self, dataset: VectorDataset) -> None:
        rng = np.random.default_rng(self._seed)
        self._graph = []
        self._entry_point = None
        for node in range(len(dataset)):
            self._insert(node, rng)

    def _random_level(self, rng: np.random.Generator) -> int:
        uniform = float(rng.random())
        # Guard against log(0).
        uniform = max(uniform, 1e-12)
        return int(-math.log(uniform) * self._level_multiplier)

    def _insert(self, node: int, rng: np.random.Generator) -> None:
        level = self._random_level(rng)
        while len(self._graph) <= level:
            self._graph.append({})
        for layer in range(level + 1):
            self._graph[layer].setdefault(node, [])
        if self._entry_point is None:
            self._entry_point = node
            return
        query = self.dataset.vectors[node]
        current = self._entry_point
        top_layer = len(self._graph) - 1
        # Greedy descent through layers above the node's level.
        for layer in range(top_layer, level, -1):
            current = self._greedy_step(query, current, layer)
        # Beam search + connect at each layer from min(level, old top) down.
        for layer in range(min(level, top_layer), -1, -1):
            candidates = self._search_layer(query, [current], layer, self.ef_construction)
            neighbours = self._select_neighbours(query, candidates, self.m)
            self._graph[layer][node] = list(neighbours)
            max_degree = self.m * 2 if layer == 0 else self.m
            for neighbour in neighbours:
                links = self._graph[layer].setdefault(neighbour, [])
                if node not in links:
                    links.append(node)
                if len(links) > max_degree:
                    self._prune(neighbour, layer, max_degree)
            if candidates:
                current = candidates[0][1]
        # A node at a new top level becomes the entry point.
        if level > self._node_level(self._entry_point):
            self._entry_point = node

    def _node_level(self, node: int) -> int:
        level = 0
        for layer_index, layer in enumerate(self._graph):
            if node in layer:
                level = layer_index
        return level

    def _select_neighbours(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Heuristic neighbour selection (HNSW Algorithm 4).

        Keep a candidate only if it is closer to the query than to every
        neighbour already kept — this diversifies edges across cluster
        boundaries, which plain closest-M selection cannot do (it fills
        every slot with same-cluster points and strands the graph).
        """
        kept: list[int] = []
        for distance, node in candidates:
            if len(kept) >= m:
                break
            if kept:
                to_kept = pairwise_distances(
                    self.dataset.vectors[node],
                    self.dataset.vectors[np.asarray(kept, dtype=np.int64)],
                    self.metric,
                )
                if np.any(to_kept < distance):
                    continue
            kept.append(node)
        # Backfill with the closest dominated candidates if under-full.
        if len(kept) < m:
            for _distance, node in candidates:
                if node not in kept:
                    kept.append(node)
                    if len(kept) >= m:
                        break
        return kept

    def _prune(self, node: int, layer: int, max_degree: int) -> None:
        """Re-select the links of ``node`` with the diversity heuristic."""
        origin = self.dataset.vectors[node]
        links = self._graph[layer][node]
        link_distances = pairwise_distances(
            origin,
            self.dataset.vectors[np.asarray(links, dtype=np.int64)],
            self.metric,
        )
        scored = sorted(zip(link_distances.tolist(), links))
        self._graph[layer][node] = self._select_neighbours(origin, scored, max_degree)

    # -- search ------------------------------------------------------------------------

    def _greedy_step(self, query: np.ndarray, start: int, layer: int) -> int:
        """Greedy descent scoring each frontier's neighbours in one call.

        Moves to the first neighbour at the minimum distance (``np.argmin``)
        when it is strictly closer than the current node.
        """
        current = start
        current_distance = float(self._distance_many(query, [current])[0])
        while True:
            neighbours = self._graph[layer].get(current, [])
            if not neighbours:
                return current
            distances = self._distance_many(query, neighbours)
            best = int(np.argmin(distances))
            if distances[best] < current_distance:
                current = neighbours[best]
                current_distance = float(distances[best])
            else:
                return current

    def _search_layer(
        self, query: np.ndarray, entry_points: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        """Beam search in one layer; returns (distance, node) sorted ascending.

        Every unvisited neighbour of the popped node is scored (whether or
        not it is pushed) with one kernel call; the heap updates then run
        with the precomputed distances in adjacency order.
        """
        visited: set[int] = set(entry_points)
        candidates: list[tuple[float, int]] = []
        best: list[tuple[float, int]] = []  # max-heap via negated distance
        entry_distances = self._distance_many(query, entry_points)
        for point, distance in zip(entry_points, entry_distances):
            distance = float(distance)
            heapq.heappush(candidates, (distance, point))
            heapq.heappush(best, (-distance, point))
        while candidates:
            distance, node = heapq.heappop(candidates)
            worst = -best[0][0]
            if distance > worst and len(best) >= ef:
                break
            fresh = [
                neighbour
                for neighbour in self._graph[layer].get(node, [])
                if neighbour not in visited
            ]
            if not fresh:
                continue
            visited.update(fresh)
            fresh_distances = self._distance_many(query, fresh)
            for neighbour, neighbour_distance in zip(fresh, fresh_distances):
                neighbour_distance = float(neighbour_distance)
                worst = -best[0][0]
                if len(best) < ef or neighbour_distance < worst:
                    heapq.heappush(candidates, (neighbour_distance, neighbour))
                    heapq.heappush(best, (-neighbour_distance, neighbour))
                    if len(best) > ef:
                        heapq.heappop(best)
        ordered = sorted((-negated, node) for negated, node in best)
        return ordered

    def _search(self, query: np.ndarray, k: int) -> SearchResult:
        if self._entry_point is None:
            return SearchResult(ids=[], distances=[], distance_computations=0)
        self._distance_counter = 0
        current = self._entry_point
        for layer in range(len(self._graph) - 1, 0, -1):
            current = self._greedy_step(query, current, layer)
        ef = max(self.ef_search, k)
        ordered = self._search_layer(query, [current], 0, ef)
        top = ordered[:k]
        return SearchResult(
            ids=[self.dataset.ids[node] for _distance, node in top],
            distances=[float(distance) for distance, _node in top],
            distance_computations=self._distance_counter,
            candidates_visited=len(ordered),
            metadata={"ef": ef},
        )
