"""Quantile sketch: accuracy bound, merge equivalence, histogram backend.

Sketch quantiles within 2% relative error of exact quantiles on 1e5
observations, ``merge(a, b)`` == observe-all equivalence
(property-based), and the sketch as a histogram's only quantile
estimator, attached only where it is asked for.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry, QuantileSketch


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank exact quantile over a sorted sample."""
    rank = min(int(q * (len(sorted_values) - 1)), len(sorted_values) - 1)
    return sorted_values[rank]


# -- accuracy -----------------------------------------------------------------


class TestSketchAccuracy:
    @pytest.mark.parametrize(
        "distribution",
        ["lognormal", "uniform", "exponential", "bimodal"],
    )
    def test_within_two_percent_on_1e5_observations(self, distribution):
        rng = random.Random(42)
        draw = {
            "lognormal": lambda: rng.lognormvariate(0.0, 2.0),
            "uniform": lambda: rng.uniform(0.001, 1000.0),
            "exponential": lambda: rng.expovariate(1 / 50.0),
            "bimodal": lambda: (
                rng.gauss(1.0, 0.1) if rng.random() < 0.5 else rng.gauss(500.0, 20.0)
            ),
        }[distribution]
        sketch = QuantileSketch(relative_accuracy=0.01)
        values = [abs(draw()) + 1e-9 for _ in range(100_000)]
        for value in values:
            sketch.observe(value)
        values.sort()
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999):
            exact = exact_quantile(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= 0.02 * exact, (q, exact, estimate)

    def test_extremes_are_exact(self):
        sketch = QuantileSketch()
        for value in (3.0, 1.0, 7.5, 2.2):
            sketch.observe(value)
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 7.5
        assert sketch.min == 1.0 and sketch.max == 7.5

    def test_zeros_and_negatives(self):
        sketch = QuantileSketch()
        for value in (-10.0, -1.0, 0.0, 0.0, 1.0, 10.0):
            sketch.observe(value)
        assert sketch.quantile(0.0) == -10.0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 10.0
        # Negative estimates keep the relative-error bound too.
        low = sketch.quantile(0.2)
        assert abs(low - (-1.0)) <= 0.02 * 1.0

    def test_empty_and_validation(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)

    def test_quantiles_batch_keys(self):
        sketch = QuantileSketch()
        for value in range(1, 101):
            sketch.observe(float(value))
        batch = sketch.quantiles((0.5, 0.95, 0.99))
        assert set(batch) == {"p50", "p95", "p99"}
        assert batch["p50"] <= batch["p95"] <= batch["p99"]


# -- merge --------------------------------------------------------------------


class TestSketchMerge:
    @given(
        left=st.lists(
            st.floats(
                min_value=1e-6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        ),
        right=st.lists(
            st.floats(
                min_value=1e-6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_observe_all(self, left, right):
        merged = QuantileSketch()
        other = QuantileSketch()
        combined = QuantileSketch()
        for value in left:
            merged.observe(value)
            combined.observe(value)
        for value in right:
            other.observe(value)
            combined.observe(value)
        merged.merge(other)
        # Bucket state is identical, so every quantile answer matches
        # exactly (the float running sum may differ in rounding only).
        assert merged.count == combined.count
        assert merged.min == combined.min and merged.max == combined.max
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == combined.quantile(q)
        state_a = merged.to_dict()
        state_b = combined.to_dict()
        assert state_a["positive"] == state_b["positive"]
        assert state_a["zeros"] == state_b["zeros"]
        assert state_a["sum"] == pytest.approx(state_b["sum"], rel=1e-9, abs=1e-9)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))
        with pytest.raises(TypeError):
            QuantileSketch().merge(object())


# -- histogram integration ----------------------------------------------------


class TestHistogramSketchBackend:
    def test_sketch_backend_sharpens_quantiles(self):
        histogram = Histogram("sketched", sketch=True)
        values = [2.0 + (index % 100) / 100.0 for index in range(1_000)]
        for value in values:
            histogram.observe(value)
        # Every value lands in the (1, 10] decade bucket: the buckets
        # alone cannot place p95, the sketch does within its bound.
        assert sorted(histogram.counts, reverse=True)[:2] == [1_000, 0]
        exact = sorted(values)[int(0.95 * (len(values) - 1))]
        assert abs(histogram.sketch.quantile(0.95) - exact) <= 0.02 * exact

    def test_sketch_only_where_asked(self):
        registry = MetricsRegistry()
        assert registry.histogram("core.stage.engine.intent.latency").sketch is None
        assert registry.histogram("sqldb.executor.seconds").sketch is None
        assert registry.histogram("turn", sketch=True).sketch.relative_accuracy == 0.01
        assert registry.histogram("x", sketch=0.05).sketch.relative_accuracy == 0.05

    def test_reset_clears_sketch_in_place(self):
        histogram = Histogram("h.latency", sketch=True)
        histogram.observe(5.0)
        backend = histogram.sketch
        histogram.reset()
        assert histogram.sketch is backend
        assert backend.count == 0
        assert backend.quantile(0.5) == 0.0
