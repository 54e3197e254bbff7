"""Observability layer: spans, metrics registry, export, integration.

Covers the tentpole acceptance criteria: span nesting and exception
status, registry reset isolation between tests, JSON round-trip of the
trace tree, the per-turn span tree covering every pipeline stage with
sqldb / retrieval children, and the near-zero cost of tracing off.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import CDAEngine, ReliabilityConfig
from repro.errors import SoundnessError
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Span,
    current_span,
    get_registry,
    render_text,
    span,
    stage_timings,
    start_trace,
    to_dict,
)


@pytest.fixture
def engine(swiss_domain) -> CDAEngine:
    return CDAEngine(swiss_domain.registry, swiss_domain.vocabulary)


# -- spans -------------------------------------------------------------------


class TestSpan:
    def test_nesting_follows_call_structure(self):
        with start_trace("root") as root:
            with span("child_a"):
                with span("grandchild"):
                    pass
            with span("child_b"):
                pass
        assert root.stage_names() == ["child_a", "child_b"]
        assert root.children[0].stage_names() == ["grandchild"]
        assert [s.name for s in root.iter_spans()] == [
            "root", "child_a", "grandchild", "child_b",
        ]

    def test_span_without_active_trace_is_the_shared_noop(self):
        assert span("anything") is NULL_SPAN
        assert current_span() is NULL_SPAN
        assert NULL_SPAN.recording is False
        # Full Span surface, all no-ops.
        with span("ignored") as s:
            s.set_attribute("k", 1).set_attributes(a=2)
        assert s is NULL_SPAN

    def test_exception_marks_error_status_and_propagates(self):
        with pytest.raises(ValueError):
            with start_trace("root") as root:
                with span("failing"):
                    raise ValueError("boom")
        failing = root.find("failing")
        assert failing.status == "error"
        assert failing.error == "ValueError: boom"
        assert root.status == "error"  # the exception crossed the root too
        # The contextvar was restored despite the exception.
        assert current_span() is NULL_SPAN

    def test_timings_are_monotonic_and_nested(self):
        with start_trace("root") as root:
            with span("child"):
                time.sleep(0.001)
        child = root.find("child")
        assert child.duration_ns > 0
        assert root.duration_ns >= child.duration_ns
        assert child.duration_ms == pytest.approx(child.duration_ns / 1e6)

    def test_attributes_and_find_all(self):
        with start_trace("root", question="q") as root:
            with span("stage", k=1) as s:
                s.set_attribute("rows", 3)
            with span("stage"):
                pass
        assert root.attributes == {"question": "q"}
        assert root.children[0].attributes == {"k": 1, "rows": 3}
        assert len(root.find_all("stage")) == 2

    def test_nested_start_trace_attaches_to_active_trace(self):
        with start_trace("outer") as outer:
            with start_trace("inner"):
                pass
        assert outer.stage_names() == ["inner"]


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counter_histogram_basics(self):
        registry = MetricsRegistry()
        c = registry.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        h = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 500.0):
            h.observe(value)
        assert h.count == 3
        assert h.min == 0.5 and h.max == 500.0
        assert h.counts == [1, 1, 1]  # the last bin is the overflow bin
        assert h.mean == pytest.approx(505.5 / 3)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_reset_zeroes_in_place_keeping_handles(self):
        registry = MetricsRegistry()
        handle = registry.counter("kept")
        handle.inc(7)
        registry.reset()
        assert handle.value == 0
        handle.inc()
        assert registry.counter("kept").value == 1
        assert registry.counter("kept") is handle

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("a.one").inc()
        registry.counter("b.two").inc()
        assert registry.counter_values(prefix="a.") == {"a.one": 1}
        assert registry.names() == ["a.one", "b.two"]
        assert "a.one" in registry


# These two tests together prove the autouse reset fixture isolates
# tests: whichever runs second sees a clean global counter.

def test_registry_isolation_first():
    get_registry().counter("obs.test.isolation").inc()
    assert get_registry().counter("obs.test.isolation").value == 1


def test_registry_isolation_second():
    assert get_registry().counter("obs.test.isolation").value <= 1
    get_registry().counter("obs.test.isolation").inc()
    assert get_registry().counter("obs.test.isolation").value == 1


# -- export ------------------------------------------------------------------


class TestExport:
    def _sample_trace(self) -> Span:
        with start_trace("engine.ask", question="q") as root:
            with span("stage_a", rows=3) as a:
                a.set_attribute("weird", {"tuple": (1, 2)})
            try:
                with span("stage_b"):
                    raise RuntimeError("nope")
            except RuntimeError:
                pass
        return root

    def test_json_round_trip_is_lossless(self):
        root = self._sample_trace()
        payload = to_dict(root)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["children"][1]["status"] == "error"
        # Exotic attribute values were coerced to JSON-safe forms.
        assert payload["children"][0]["attributes"]["weird"] == {"tuple": [1, 2]}

    def test_error_status_spans_round_trip_through_json(self):
        # Satellite check: an exception inside a span must survive the
        # full JSON round trip with status "error" AND its message.
        try:
            with start_trace("engine.ask") as root:
                with span("engine.execution"):
                    raise SoundnessError("verification exploded")
        except SoundnessError:
            pass
        restored = json.loads(json.dumps(to_dict(root)))
        (failed,) = restored["children"]
        assert failed["name"] == "engine.execution"
        assert failed["status"] == "error"
        assert failed["error"] == "SoundnessError: verification exploded"
        assert restored["status"] == "error"

    def test_render_text_shows_tree_and_errors(self):
        report = render_text(self._sample_trace())
        lines = report.splitlines()
        assert lines[0].startswith("engine.ask")
        assert lines[1].startswith("  stage_a")
        assert "RuntimeError: nope" in report
        assert "ms" in lines[0]

    def test_stage_timings_aggregates_direct_children(self):
        roots = [self._sample_trace(), self._sample_trace()]
        stages = stage_timings(roots)
        assert set(stages) == {"stage_a", "stage_b"}
        assert stages["stage_a"]["count"] == 2
        assert stages["stage_a"]["mean_ms"] == pytest.approx(
            stages["stage_a"]["total_ms"] / 2, abs=1e-6
        )


# -- engine integration ------------------------------------------------------


class TestEngineTracing:
    def test_data_ask_covers_every_pipeline_stage(self, engine):
        answer = engine.ask("how many employees are there")
        assert answer.kind.value == "data"
        root = answer.trace
        assert root is not None and root.name == "engine.ask"
        stages = root.stage_names()
        for stage in (
            "engine.intent",
            "nl.nl2sql.ground",
            "nl.nl2sql.translate",
            "engine.execution",
            "engine.verification",
            "soundness.confidence.fuse",
            "engine.abstention",
        ):
            assert stage in stages
        assert len(stages) >= 6
        # sqldb children hang under the execution stage.
        execution = root.find("engine.execution")
        assert execution.find("sqldb.executor.execute") is not None
        assert root.find("soundness.verifier.verify") is not None
        # And the whole turn exports as JSON and text.
        assert json.loads(json.dumps(to_dict(root))) == to_dict(root)
        assert "engine.ask" in render_text(root)

    def test_discovery_ask_has_retrieval_children(self, engine):
        answer = engine.ask("what data do you have about employment")
        root = answer.trace
        retrieval = root.find("engine.retrieval")
        assert retrieval is not None
        assert retrieval.find("retrieval.discovery.search") is not None
        assert retrieval.find("retrieval.hybrid.search") is not None
        assert retrieval.find("vector.index.search_batch") is not None

    def test_failed_grounding_is_recorded_as_error_span(self, engine):
        answer = engine.ask("what is the average monthly salary by canton")
        ground = answer.trace.find("nl.nl2sql.ground")
        assert ground is not None
        assert ground.status == "error"
        assert "TranslationError" in ground.error

    def test_tracing_off_attaches_no_trace(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(tracing=False),
        )
        answer = engine.ask("how many employees are there")
        assert answer.kind.value == "data"
        assert answer.trace is None
        # No trace active inside the call either: instrumented call sites
        # degenerated to the shared no-op.
        assert current_span() is NULL_SPAN

    def test_disabled_span_overhead_is_tiny(self):
        # Loose bound: the disabled path (one call + one contextvar read)
        # must stay within a few microseconds per call even on slow CI.
        iterations = 10_000
        started = time.perf_counter()
        for _ in range(iterations):
            with span("off"):
                pass
        per_call = (time.perf_counter() - started) / iterations
        assert per_call < 20e-6

    def test_metrics_flow_from_an_ask(self, engine):
        # The session-scoped domain shares its query cache across tests,
        # so assert on lookups (hit or miss), not executor runs.
        registry = get_registry()
        engine.ask("how many employees are there")
        lookups = (
            registry.counter("sqldb.cache.hits").value
            + registry.counter("sqldb.cache.misses").value
        )
        assert lookups >= 1
        assert registry.counter("core.session.questions").value >= 1
        assert registry.counter("soundness.verifier.passed").value >= 1


# -- satellite: cache stats through the registry ------------------------------


class TestCacheMetrics:
    def test_cache_hits_and_misses_reach_registry(self):
        from repro.sqldb import Database

        db = Database(cache_size=8)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        registry = get_registry()
        registry.reset()
        db.execute("SELECT v FROM t")  # miss
        db.execute("SELECT v FROM t")  # hit
        db.execute("INSERT INTO t VALUES (3, 30)")  # bumps version
        db.execute("SELECT v FROM t")  # invalidation + miss
        assert registry.counter("sqldb.cache.hits").value == 1
        assert registry.counter("sqldb.cache.misses").value == 2
        assert registry.counter("sqldb.cache.invalidations").value == 1
        assert db.cache.stats.snapshot() == {
            "hits": 1, "misses": 2, "invalidations": 1, "hit_rate": 1 / 3,
        }
        assert db.cache.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_guards_divide_by_zero(self):
        from repro.sqldb.cache import CacheStats, QueryCache

        assert CacheStats().hit_rate == 0.0
        assert QueryCache().hit_rate == 0.0

    def test_clear_can_reset_stats(self):
        from repro.sqldb import Database

        db = Database(cache_size=8)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT id FROM t")
        db.cache.clear()
        assert db.cache.stats.misses == 1  # kept by default
        db.cache.clear(reset_stats=True)
        assert db.cache.stats.snapshot() == {
            "hits": 0, "misses": 0, "invalidations": 0, "hit_rate": 0.0,
        }


# -- satellite: session snapshot ---------------------------------------------


class TestSessionSnapshot:
    def test_snapshot_tracks_turns_and_counters(self, engine):
        engine.ask("how many employees are there")
        engine.ask("how many cantons are there")
        snap = engine.session.snapshot()
        assert snap["questions_asked"] == 2
        assert snap["answers_given"] == 2
        assert snap["turns"] == 4
        assert snap["pending_clarification"] is False
        registry = get_registry()
        assert registry.counter("core.session.questions").value == 2
        assert registry.counter("core.session.answers").value == 2


# -- soundness guard (unchanged semantics under the span wrapper) -------------


def test_fuse_confidence_still_validates_inputs():
    from repro.soundness.confidence import fuse_confidence

    with pytest.raises(SoundnessError):
        fuse_confidence()
    breakdown = fuse_confidence(self_reported=0.9, grounding=0.8)
    assert 0.0 <= breakdown.value <= 1.0
    assert "grounding" in breakdown.parts
