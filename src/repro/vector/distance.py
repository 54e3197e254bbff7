"""Distance kernels for similarity search.

Everything is vectorised numpy; the kernels return *distances* (smaller is
closer) even for inner-product similarity, so every index can rank with a
single convention.

The batched kernels (:func:`pairwise_distances_batch`,
:func:`rowwise_distances`) are the primitives of the batched retrieval hot
path.  The single-query :func:`pairwise_distances` is a one-row
:func:`pairwise_distances_batch`.  Every reduction is an ``einsum`` over
the trailing axis (never a BLAS gemv/gemm, whose accumulation order
depends on operand shapes), so each output element is independent of how
many other queries share the call: a query's distances do not depend on
its batch.  ``tests/test_batch_parity.py`` checks the indexes built on
these kernels against a per-query reference scan.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import DimensionMismatchError


class Metric(enum.Enum):
    """Supported dissimilarity measures."""

    L2 = "l2"
    COSINE = "cosine"
    INNER_PRODUCT = "inner_product"


def _check_dims(query: np.ndarray, data: np.ndarray) -> None:
    if query.ndim != 1:
        raise DimensionMismatchError(
            f"query must be a 1-d vector, got shape {query.shape}"
        )
    if data.ndim != 2:
        raise DimensionMismatchError(
            f"data must be a 2-d matrix, got shape {data.shape}"
        )
    if query.shape[0] != data.shape[1]:
        raise DimensionMismatchError(
            f"query dim {query.shape[0]} != data dim {data.shape[1]}"
        )


def _check_batch_dims(queries: np.ndarray, data: np.ndarray) -> None:
    if queries.ndim != 2:
        raise DimensionMismatchError(
            f"queries must be a 2-d matrix, got shape {queries.shape}"
        )
    if data.ndim != 2:
        raise DimensionMismatchError(
            f"data must be a 2-d matrix, got shape {data.shape}"
        )
    if queries.shape[1] != data.shape[1]:
        raise DimensionMismatchError(
            f"query dim {queries.shape[1]} != data dim {data.shape[1]}"
        )


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms via the same einsum the kernels use.

    Precomputing these once and gathering is bit-identical to recomputing
    them on gathered rows (the einsum reduces each row independently),
    which is what lets IVF share one norm pass across every query.
    """
    return np.einsum("nd,nd->n", vectors, vectors)


def pairwise_distances_batch(
    queries: np.ndarray, data: np.ndarray, metric: Metric = Metric.L2
) -> np.ndarray:
    """Distances from every row of ``queries`` to every row of ``data``.

    Returns a ``(n_queries, n_data)`` matrix whose row ``q`` is exactly
    what ``pairwise_distances(queries[q], data)`` returns.  L2 uses the
    norm expansion ``sqrt(|q|^2 + |x|^2 - 2 q.x)`` so the only O(q*n*d)
    pass is one dot-product einsum — no (q, n, d) delta tensor is ever
    materialised.
    """
    _check_batch_dims(queries, data)
    if metric is Metric.L2:
        query_sq = np.einsum("qd,qd->q", queries, queries)
        data_sq = squared_norms(data)
        dots = np.einsum("nd,qd->qn", data, queries)
        squared = query_sq[:, None] + data_sq[None, :] - 2.0 * dots
        # Cancellation can push tiny distances a hair below zero.
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared)
    if metric is Metric.COSINE:
        # 1 - cosine similarity; zero vectors get distance 1.
        query_norms = np.sqrt(np.einsum("qd,qd->q", queries, queries))
        data_norms = np.linalg.norm(data, axis=1)
        dots = np.einsum("nd,qd->qn", data, queries)
        denominator = query_norms[:, None] * data_norms[None, :]
        similarities = np.zeros_like(dots)
        nonzero = denominator > 0
        similarities[nonzero] = dots[nonzero] / denominator[nonzero]
        return 1.0 - similarities
    if metric is Metric.INNER_PRODUCT:
        return -np.einsum("nd,qd->qn", data, queries)
    raise ValueError(f"unknown metric {metric}")


def rowwise_distances(
    queries: np.ndarray, data: np.ndarray, metric: Metric = Metric.L2
) -> np.ndarray:
    """Per-row candidate scoring: ``queries`` is ``(q, d)``, ``data`` is
    ``(q, l, d)`` — row ``q`` of the result holds the distances from query
    ``q`` to its *own* ``l`` candidate vectors.

    This is the kernel behind LSH's padded batch scoring: each query has
    a different (ragged, padded) candidate set, gathered into one 3-d
    tensor so a single einsum scores the whole batch.  Element ``(q, i)``
    equals ``pairwise_distances(queries[q], data[q])[i]`` bit-for-bit.
    """
    if queries.ndim != 2 or data.ndim != 3 or data.shape[0] != queries.shape[0]:
        raise DimensionMismatchError(
            f"queries {queries.shape} incompatible with candidates {data.shape}"
        )
    if queries.shape[1] != data.shape[2]:
        raise DimensionMismatchError(
            f"query dim {queries.shape[1]} != candidate dim {data.shape[2]}"
        )
    if metric is Metric.L2:
        query_sq = np.einsum("qd,qd->q", queries, queries)
        data_sq_norms = np.einsum("qld,qld->ql", data, data)
        dots = np.einsum("qld,qd->ql", data, queries)
        squared = query_sq[:, None] + data_sq_norms - 2.0 * dots
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared)
    if metric is Metric.COSINE:
        query_norms = np.sqrt(np.einsum("qd,qd->q", queries, queries))
        data_norms = np.linalg.norm(data, axis=2)
        dots = np.einsum("qld,qd->ql", data, queries)
        denominator = query_norms[:, None] * data_norms
        similarities = np.zeros_like(dots)
        nonzero = denominator > 0
        similarities[nonzero] = dots[nonzero] / denominator[nonzero]
        return 1.0 - similarities
    if metric is Metric.INNER_PRODUCT:
        return -np.einsum("qld,qd->ql", data, queries)
    raise ValueError(f"unknown metric {metric}")


def pairwise_distances(
    query: np.ndarray, data: np.ndarray, metric: Metric = Metric.L2
) -> np.ndarray:
    """Distances from ``query`` (1-d) to every row of ``data`` (2-d)."""
    _check_dims(query, data)
    return pairwise_distances_batch(query[None, :], data, metric)[0]


def stable_top_k(distances: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest distances, ties broken by position.

    Exactly equivalent to ``np.argsort(distances, kind="stable")[:k]``,
    but via ``argpartition`` plus a tie-repair step, so only the top-k
    neighbourhood is ever sorted.
    """
    n = len(distances)
    if k >= n:
        return np.argsort(distances, kind="stable")[:k]
    part = np.argpartition(distances, k - 1)[:k]
    threshold = distances[part].max()
    # All positions at or below the k-th value; the stable sort then breaks
    # value ties by position, matching the full-argsort tie-break.
    candidates = np.flatnonzero(distances <= threshold)
    order = np.argsort(distances[candidates], kind="stable")[:k]
    return candidates[order]
