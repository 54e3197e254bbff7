"""Unified metrics registry: counters and fixed-bucket histograms.

Before this module every layer kept bespoke tallies — ``CacheStats`` on
the query cache, ``QueryStats`` on the database, ad-hoc ints on the
session, per-result work counters on the vector indexes — with no single
place to read, reset, or export them.  The registry unifies them under
the ``layer.component.metric`` naming scheme (``sqldb.cache.hits``,
``vector.index.distance_computations``, ``core.session.questions``)
while the original attributes remain as thin views for compatibility.

Two scopes see every observation:

* **the process registry** (:func:`get_registry`) — the sum over every
  engine and every bare library call; Prometheus exports it, and
  :meth:`MetricsRegistry.reset` zeroes it *in place*, so handles cached
  at import time (the hot-path pattern) survive test-isolation resets;
* **the turn in progress** — ``CDAEngine.ask`` binds a :class:`TurnTally`
  in a contextvar (the way :mod:`repro.obs.trace` binds the active
  span); ``inc``, ``observe`` and :func:`repro.obs.events.emit` also
  write into it, so a turn's counter delta and events are read straight
  off the tally, and the engine folds it into its session's own
  registry afterwards.  Work outside a turn reaches the process
  registry only.

Stdlib only, like the rest of :mod:`repro.obs`; :class:`Histogram`
observation is a binary search over a short tuple of bucket bounds.
"""

from __future__ import annotations

import bisect
from contextvars import ContextVar

from repro.obs.sketch import QuantileSketch

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TurnTally",
    "get_registry",
    "counter",
    "histogram",
]


class TurnTally:
    """Everything one turn did: counter increments (name → amount, no
    zero entries), histogram observations in order, and events.

    Used as a context manager it is the calling context's active tally
    until the block exits.
    """

    __slots__ = ("counts", "observations", "events", "_token")

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.observations: list[tuple[Histogram, float]] = []
        self.events: list[dict] = []
        self._token = None

    def __enter__(self) -> "TurnTally":
        self._token = _TALLY.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TALLY.reset(self._token)
        self._token = None
        return False

    def fold_into(self, registry: "MetricsRegistry") -> None:
        """Add the turn's increments and observations to ``registry`` (one
        dict probe per metric once it exists; new histograms keep the
        originals' buckets and sketch accuracy).  Call it after the
        tally's block has exited."""
        known = registry._metrics.get
        for name, amount in self.counts.items():
            (known(name) or registry.counter(name)).inc(amount)
        for metric, value in self.observations:
            target = known(metric.name)
            if target is None:
                sketch = metric.sketch
                accuracy = sketch.relative_accuracy if sketch is not None else False
                target = registry.histogram(metric.name, metric.buckets, accuracy)
            target.observe(value)


#: The tally of the turn the calling context is inside (None = no turn).
_TALLY: ContextVar[TurnTally | None] = ContextVar(
    "repro_obs_turn_tally", default=None
)


class Counter:
    """A monotonically increasing tally (resettable to zero)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the tally (and to the active
        turn's, unless it is zero)."""
        self.value += amount
        if amount:
            tally = _TALLY.get()
            if tally is not None:
                tally.counts[self.name] = tally.counts.get(self.name, 0) + amount

    def reset(self) -> None:
        """Zero the tally in place (handles stay valid)."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


#: Default histogram bounds: decade-spanning, unit-agnostic (callers
#: observing seconds get µs-to-minutes coverage; callers observing counts
#: get 1-to-1e6 coverage).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6,
)


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts, sum, min/max.

    ``buckets`` are upper bounds (inclusive) of each bin, ascending; one
    implicit overflow bin catches everything larger.  Observation is a
    binary search over the bounds — no numpy, no allocation.

    ``sketch`` attaches a relative-error-bounded
    :class:`~repro.obs.sketch.QuantileSketch` backend: observations feed
    both structures and :meth:`quantile` answers from the sketch (within
    its accuracy bound at any scale) instead of by bucket interpolation.
    Pass ``True`` for the default 1% accuracy or a float in (0, 1) to
    choose it; latency metrics (``*.latency``) get the sketch
    automatically from :meth:`MetricsRegistry.histogram`.
    """

    __slots__ = (
        "name", "buckets", "counts", "count", "total", "min", "max", "sketch",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        sketch: bool | float = False,
    ):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bin
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.sketch: QuantileSketch | None = None
        if sketch:
            self.sketch = QuantileSketch(
                sketch if isinstance(sketch, float) else 0.01
            )

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.sketch is not None:
            self.sketch.observe(value)
        tally = _TALLY.get()
        if tally is not None:
            tally.observations.append((self, value))

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile: sketch-accurate when a sketch backend is
        attached, else linearly interpolated within the winning bucket.

        The interpolated estimate is clamped to the observed
        ``[min, max]`` range and is monotone non-decreasing in ``q``.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if self.sketch is not None:
            return self.sketch.quantile(q)
        target = q * self.count
        running = 0
        estimate = self.max if self.max is not None else 0.0
        for index, bin_count in enumerate(self.counts):
            if running + bin_count >= target:
                if index == 0:
                    lower = self.min if self.min is not None else 0.0
                else:
                    lower = self.buckets[index - 1]
                if index < len(self.buckets):
                    upper = self.buckets[index]
                else:  # overflow bin: bounded above by the observed max
                    upper = self.max if self.max is not None else lower
                fraction = (target - running) / bin_count if bin_count else 0.0
                fraction = min(max(fraction, 0.0), 1.0)
                estimate = lower + (upper - lower) * fraction
                break
            running += bin_count
        # Clamp into the observed range: bucket bounds can overshoot the
        # data actually seen (e.g. every value in one wide bin).
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def reset(self) -> None:
        """Zero all bins and stats in place."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        if self.sketch is not None:
            self.sketch.reset()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named metrics, created on first use, resettable as a unit.

    ``counter``/``histogram`` are get-or-create: the first call
    registers, later calls return the same object — which is what lets
    hot paths cache a handle at import time and never pay a lookup again.
    Asking for an existing name as a different kind raises.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Histogram] = {}

    def _get_or_create(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, *args)
        elif metric.kind != cls.kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        sketch: bool | float | None = None,
    ) -> Histogram:
        """The histogram named ``name`` (created on first use).

        ``buckets`` and ``sketch`` only apply at creation; later callers
        share the original configuration.  ``sketch=None`` (the default)
        auto-attaches the quantile-sketch backend to latency metrics —
        any name ending in ``.latency`` — so the pipeline's p50/p95/p99
        stay relative-error-bounded without call sites opting in.
        """
        if sketch is None:
            sketch = name.endswith(".latency")
        return self._get_or_create(name, Histogram, buckets, sketch)

    def get(self, name: str):
        """The metric named ``name``, or None."""
        return self._metrics.get(name)

    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """Name → value for every registered counter (optionally only
        names starting with ``prefix``)."""
        return {
            name: metric.value
            for name, metric in self._metrics.items()
            if metric.kind == "counter" and name.startswith(prefix)
        }

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric *in place* — registrations and cached handles
        survive, which is what test isolation relies on."""
        for metric in self._metrics.values():
            metric.reset()


#: The process-wide registry every layer reports into.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process registry: the sum over all engines and library calls
    (reset it between tests, never replace it)."""
    return _GLOBAL


def counter(name: str) -> Counter:
    """Shorthand for ``get_registry().counter(name)``."""
    return _GLOBAL.counter(name)


def histogram(
    name: str,
    buckets: tuple[float, ...] | None = None,
    sketch: bool | float | None = None,
) -> Histogram:
    """Shorthand for ``get_registry().histogram(name, buckets, sketch)``."""
    return _GLOBAL.histogram(name, buckets, sketch)
