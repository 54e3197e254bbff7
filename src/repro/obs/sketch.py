"""Streaming quantile sketch with a relative-error guarantee.

The fixed-bucket :class:`~repro.obs.metrics.Histogram` is perfect for
counting but coarse for tail latencies: with decade-wide bins, "p99"
can only ever be a decade boundary.  This module provides the standard
fix — a log-bucketed, mergeable sketch in the style of DDSketch
(Masson, Rim & Lee, VLDB 2019): values map to geometric buckets
``(gamma^(i-1), gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``, so any
quantile estimate lands within relative error ``alpha`` of the true
order statistic, at any scale and for any distribution.

Properties the telemetry pipeline relies on:

* **relative-error bound** — ``|estimate - exact| <= alpha * exact``
  for every quantile of every non-negative stream (mirrored buckets
  extend the bound to negatives);
* **mergeable** — :meth:`QuantileSketch.merge` adds bucket counts, so
  ``merge(a, b)`` is *exactly* equivalent to observing both streams
  into one sketch (same buckets, same counts, same answers) — the
  property that makes per-shard sketches aggregable;
* **bounded memory** — bucket count grows with the *log* of the value
  range (one dict entry per occupied bucket), not with observations;
  :meth:`to_dict` exposes the occupied buckets.

Like the rest of :mod:`repro.obs`: stdlib only, no numpy on the
observation path (one ``log`` + one dict increment per value).
"""

from __future__ import annotations

import math

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY"]

#: Default relative accuracy: quantiles within 1% of the exact value.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch (DDSketch-style).

    ``relative_accuracy`` (alpha) bounds the relative error of every
    quantile estimate.  Values of any sign are accepted: positives and
    negatives keep separate mirrored bucket stores, exact zeros a plain
    counter.
    """

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_positive",
        "_negative",
        "_zeros",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not (0.0 < relative_accuracy < 1.0):
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    # -- observation -------------------------------------------------------------

    def _bucket_index(self, magnitude: float) -> int:
        """The geometric bucket holding ``magnitude`` (> 0)."""
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _bucket_value(self, index: int) -> float:
        """The representative value of bucket ``index``.

        The bucket covers ``(gamma^(i-1), gamma^i]``; its harmonic
        midpoint ``2*gamma^i / (gamma+1)`` is within ``alpha`` relative
        error of every value inside it.
        """
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float) -> None:
        """Record one observation."""
        if value > 0.0:
            index = self._bucket_index(value)
            self._positive[index] = self._positive.get(index, 0) + 1
        elif value < 0.0:
            index = self._bucket_index(-value)
            self._negative[index] = self._negative.get(index, 0) + 1
        else:
            self._zeros += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- queries -----------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, within ``relative_accuracy`` of exact.

        Walks the buckets in value order — negatives from most to least
        negative, then zeros, then positives ascending — until the
        target rank is covered.  Exact ``min``/``max`` are returned at
        the extremes.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min if self.min is not None else 0.0
        if q == 1.0:
            return self.max if self.max is not None else 0.0
        rank = q * (self.count - 1)
        cumulative = 0
        for index in sorted(self._negative, reverse=True):
            cumulative += self._negative[index]
            if cumulative > rank:
                return -self._bucket_value(index)
        if self._zeros:
            cumulative += self._zeros
            if cumulative > rank:
                return 0.0
        for index in sorted(self._positive):
            cumulative += self._positive[index]
            if cumulative > rank:
                return self._bucket_value(index)
        return self.max if self.max is not None else 0.0

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        """Several quantiles at once, keyed ``p50``-style (JSON-ready)."""
        return {f"p{int(round(q * 100))}": self.quantile(q) for q in qs}

    # -- merge -------------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place (and return self).

        Requires identical ``relative_accuracy`` (same bucket geometry);
        the merged sketch is indistinguishable from one that observed
        both streams directly.
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError("can only merge another QuantileSketch")
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative_accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        for index, bucket_count in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + bucket_count
        for index, bucket_count in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + bucket_count
        self._zeros += other._zeros
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # -- lifecycle / export ------------------------------------------------------

    def reset(self) -> None:
        """Drop every observation in place (geometry is kept)."""
        self._positive.clear()
        self._negative.clear()
        self._zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def to_dict(self) -> dict:
        """Full state as a JSON-safe dict (buckets as sorted pairs)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zeros": self._zeros,
            "positive": [
                [index, self._positive[index]] for index in sorted(self._positive)
            ],
            "negative": [
                [index, self._negative[index]] for index in sorted(self._negative)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.relative_accuracy}, n={self.count}, "
            f"buckets={len(self._positive) + len(self._negative)})"
        )
