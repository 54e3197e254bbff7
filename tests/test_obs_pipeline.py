"""Telemetry pipeline: turn events, scorecard, and standard exporters.

Covers the PR's acceptance criteria: ``Session.scorecard()`` returns
P1–P5 verdicts on a real multi-turn session, the Prometheus exposition
parses under its line-format rules, a Perfetto-loadable Chrome trace is
produced for an ``engine.ask`` span tree, and the CLI surfaces all
three (``--scorecard`` / ``--prometheus`` / ``--export-trace``).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core import CDAEngine
from repro.obs import (
    SLOThresholds,
    TurnTally,
    build_scorecard,
    chrome_trace_json,
    counter,
    emit,
    get_registry,
    histogram,
    sanitize_metric_name,
    span,
    start_trace,
    to_chrome_trace,
    to_prometheus,
)

PROPS = ("P1", "P2", "P3", "P4", "P5")


@pytest.fixture
def engine(swiss_domain) -> CDAEngine:
    return CDAEngine(swiss_domain.registry, swiss_domain.vocabulary)


# -- turn events --------------------------------------------------------------


class TestEventLog:
    def test_turn_events_reach_the_envelope_in_order(self, engine, monkeypatch):
        # A question that opens a clarification emits one event in ask.
        engine.ask("what data do you have about employment")
        events = engine.recorder.last().outputs["events"]
        assert [event["name"] for event in events] == ["guidance.clarification"]
        assert events[0]["severity"] == "info"
        # Events emitted anywhere inside the turn land in emission order,
        # with their attributes, on that turn's envelope only.
        original = engine._ask

        def noisy_ask(text, gold):
            emit("test.first", severity="warning", attempt=2)
            answer = original(text, gold)
            emit("test.second", severity="debug")
            return answer

        monkeypatch.setattr(engine, "_ask", noisy_ask)
        engine.ask("employment")
        assert engine.recorder.last().outputs["events"] == [
            {"name": "test.first", "severity": "warning", "attrs": {"attempt": 2}},
            {"name": "test.second", "severity": "debug", "attrs": {}},
        ]

    def test_events_outside_a_turn_drop_and_bad_severity_raises(self):
        emit("outside.turn")  # no tally bound: dropped, no error
        with TurnTally() as tally:
            emit("inside.turn", severity="error", code=7)
        emit("after.turn")
        assert tally.events == [
            {"name": "inside.turn", "severity": "error", "attrs": {"code": 7}},
        ]
        with pytest.raises(ValueError):
            emit("x", severity="loud")
        with pytest.raises(ValueError), TurnTally() as tally:
            emit("x", severity="loud")
        assert tally.events == []

    def test_engine_turn_timings_are_recorded_once(self, engine):
        answer = engine.ask("how many employees are there")
        assert answer.kind.value == "data"
        stages = [child.name for child in answer.trace.children]
        assert {"engine.intent", "engine.execution"} <= set(stages)
        outputs = engine.recorder.last().outputs
        # No event in the turn's slice copies a span or the turn latency.
        for event in outputs["events"]:
            assert event["name"] not in ("engine.turn", "engine.stage")
            assert not {"ms", "seconds", "stage"} & set(event["attrs"])
        # Every stage span added one observation to its histogram (the
        # autouse fixture zeroed the registry before this test).
        for name in set(stages):
            latency = get_registry().get(f"core.stage.{name}.latency")
            assert latency.count == stages.count(name)
        # The envelope holds the turn's timing once: the tree and latency_s.
        assert outputs["trace"] is answer.trace
        assert outputs["latency_s"] >= answer.trace.duration_seconds
        assert [key for key in outputs if "latency" in key] == ["latency_s"]

    def test_cache_invalidation_emits_an_event(self):
        from repro.sqldb import Database

        db = Database(cache_size=8)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with TurnTally() as tally:
            db.execute("SELECT id FROM t")
            db.execute("INSERT INTO t VALUES (2)")
            db.execute("SELECT id FROM t")
        invalidations = [
            event for event in tally.events
            if event["name"] == "sqldb.cache.invalidation"
        ]
        assert len(invalidations) == 1
        assert "SELECT" in invalidations[0]["attrs"]["sql"].upper()
        assert tally.counts["sqldb.cache.invalidations"] == 1


# -- scorecard ----------------------------------------------------------------


def _seed_metrics(latency=0.01, hits=8, misses=2):
    """Populate the global registry with a healthy-looking session."""
    turn = histogram("core.engine.turn.latency")
    for _ in range(20):
        turn.observe(latency)
    counter("sqldb.cache.hits").inc(hits)
    counter("sqldb.cache.misses").inc(misses)
    counter("nl.ground.attempts").inc(10)
    counter("nl.ground.grounded").inc(9)
    for _ in range(9):
        histogram("nl.ground.confidence").observe(0.9)
    counter("core.engine.data_answers").inc(9)
    counter("core.engine.explained_answers").inc(9)
    counter("soundness.verifier.passed").inc(9)
    counter("guidance.suggestions.offered").inc(5)


class TestScorecard:
    def test_healthy_session_passes_every_property(self):
        _seed_metrics()
        session = {
            "questions_asked": 10, "answers_given": 9,
            "abstentions": 1, "clarifications_asked": 0,
        }
        card = build_scorecard(session)
        assert [verdict.prop for verdict in card.verdicts] == list(PROPS)
        for prop in PROPS:
            assert card.verdict(prop).status == "pass", card.verdict(prop)
        assert card.status == "pass"

    def test_slo_breach_fails_and_margin_warns(self):
        _seed_metrics(latency=0.2)  # p50 way over the 0.05 s SLO
        card = build_scorecard({"questions_asked": 1})
        assert card.verdict("P1").status == "fail"
        assert card.status == "fail"
        # Within the warn margin: 0.05 < p50 <= 0.05 * 1.2.
        get_registry().reset()
        _seed_metrics(latency=0.055)
        card = build_scorecard({"questions_asked": 1})
        assert card.verdict("P1").status == "warn"

    def test_no_data_skips_instead_of_failing(self):
        card = build_scorecard({})
        for prop in PROPS:
            assert card.verdict(prop).status == "skip"
        assert card.status == "skip"
        for verdict in card.verdicts:
            for check in verdict.checks:
                assert check.status == "skip"
                assert "no data" in check.describe()

    def test_cache_hit_rate_needs_minimum_lookups(self):
        counter("sqldb.cache.hits").inc(0)
        counter("sqldb.cache.misses").inc(2)  # below cache_min_lookups=5
        card = build_scorecard({})
        checks = {check.name: check for check in card.verdict("P1").checks}
        assert checks["query-cache hit rate"].status == "skip"
        counter("sqldb.cache.misses").inc(10)  # all misses, now judged
        card = build_scorecard({})
        checks = {check.name: check for check in card.verdict("P1").checks}
        assert checks["query-cache hit rate"].status == "fail"

    def test_abstention_rate_is_lower_is_better(self):
        card = build_scorecard({"questions_asked": 10, "abstentions": 9})
        checks = {check.name: check for check in card.verdict("P4").checks}
        assert checks["abstention rate"].status == "fail"
        assert checks["abstention rate"].direction == "<="

    def test_custom_thresholds_override_defaults(self):
        _seed_metrics()
        strict = SLOThresholds(turn_p50_seconds=1e-9, warn_margin=0.0)
        card = build_scorecard({"questions_asked": 1}, thresholds=strict)
        assert card.verdict("P1").status == "fail"

    def test_to_dict_is_json_ready_and_complete(self):
        _seed_metrics()
        card = build_scorecard({"questions_asked": 10, "answers_given": 9})
        payload = json.loads(json.dumps(card.to_dict()))
        assert payload["status"] == card.status
        assert [p["property"] for p in payload["properties"]] == list(PROPS)
        for prop in payload["properties"]:
            assert prop["title"]
            for check in prop["checks"]:
                assert check["status"] in {"pass", "warn", "fail", "skip"}
                # Only a skipped check says why it has no data.
                assert bool(check["detail"]) == (check["status"] == "skip")
        checks = {
            check["name"]: check
            for prop in payload["properties"] for check in prop["checks"]
        }
        assert checks["verification pass rate"]["value"] == 1.0
        assert checks["verification pass rate"]["detail"] == ""
        assert checks["clarification resolution"]["detail"] == (
            "no clarifications asked"
        )

    def test_render_text_lists_every_property(self):
        _seed_metrics()
        report = build_scorecard({"questions_asked": 10}).render_text()
        for prop, title in zip(PROPS, (
            "Efficiency", "Grounding", "Explainability", "Soundness", "Guidance",
        )):
            assert f"{prop} {title}" in report
        assert report.splitlines()[-1].startswith("overall:")

    def test_unknown_property_raises(self):
        with pytest.raises(KeyError):
            build_scorecard({}).verdict("P9")


class TestScorecardOnRealSession:
    def test_multi_turn_session_yields_p1_to_p5_verdicts(self, engine):
        engine.ask("how many employees are there")
        engine.ask("how many cantons are there")
        engine.ask("what data do you have about employment")
        engine.ask("employment")  # resolve the discovery clarification
        card = engine.session.scorecard()
        assert [verdict.prop for verdict in card.verdicts] == list(PROPS)
        assert card.verdict("P2").status == "pass"   # groundings landed
        assert card.verdict("P3").status == "pass"   # answers explained
        assert card.verdict("P4").status == "pass"   # verifier passed
        assert card.verdict("P5").status == "pass"   # clarification resolved
        assert card.status in {"pass", "warn"}
        assert card.session["questions_asked"] == 3
        assert card.session["clarifications_asked"] == 1

    def test_a_session_scorecard_ignores_other_sessions(self):
        from repro.datasets import build_swiss_labour_registry

        def fresh_engine():
            bundle = build_swiss_labour_registry(seed=0)
            return CDAEngine(bundle.registry, bundle.vocabulary)

        first, second = fresh_engine(), fresh_engine()
        for question in (
            "how many employees are there",
            "what data do you have about employment",
            "employment",
        ):
            first.ask(question)
            before = first.scorecard().to_dict()
            second.ask("how many cantons are there")
            second.ask("what data do you have about employment")
            second.ask("employment")
            # Work outside any turn reaches the process registry only.
            second.discover(["employment by canton"])
            assert first.scorecard().to_dict() == before
        p5 = {check.name: check for check in first.scorecard().verdict("P5").checks}
        # Two answers offered 1 + 4 suggestions; the other session's
        # answers and suggestions do not count here.
        assert p5["suggestions per answer"].value == 2.5
        process = get_registry().get("core.session.questions").value
        assert first.session.metrics.get("core.session.questions").value == 2
        assert process == 2 + 2 * 3

    def test_engine_scorecard_uses_the_configured_slo(self, engine):
        engine.ask("how many employees are there")
        assert engine.config.slo.turn_p50_seconds == 0.05
        card = engine.scorecard()
        assert card.verdict("P1").checks[0].threshold == 0.05
        strict = SLOThresholds(turn_p50_seconds=1e-12, warn_margin=0.0)
        assert engine.scorecard(strict).verdict("P1").status == "fail"


# -- Prometheus exposition ----------------------------------------------------


_METRIC_LINE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]+)"\})? (\S+)$'
)


def _parse_prometheus(text: str) -> dict[str, list[tuple[str | None, float]]]:
    """Validate the exposition line format; samples keyed by metric name."""
    assert text.endswith("\n"), "exposition must end with a newline"
    samples: dict[str, list[tuple[str | None, float]]] = {}
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert line.strip(), "blank lines are not emitted"
        match = _METRIC_LINE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        name, le, value = match.groups()
        parsed = float("inf") if value == "+Inf" else float(value)
        samples.setdefault(name, []).append((le, parsed))
    return samples


class TestPrometheusExport:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("core.engine.turn.latency") == (
            "core_engine_turn_latency"
        )
        assert sanitize_metric_name("a.b", namespace="repro") == "repro_a_b"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("sp ace/slash") == "sp_ace_slash"

    def test_exposition_parses_under_line_format_rules(self):
        counter("sqldb.cache.hits").inc(3)
        h = histogram("core.engine.turn.latency")
        for value in (0.004, 0.02, 0.3):
            h.observe(value)
        text = to_prometheus()
        samples = _parse_prometheus(text)
        assert samples["repro_sqldb_cache_hits_total"] == [(None, 3.0)]
        buckets = samples["repro_core_engine_turn_latency_bucket"]
        # Cumulative and closed with +Inf == observation count.
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 3.0
        assert samples["repro_core_engine_turn_latency_count"] == [(None, 3.0)]
        total = samples["repro_core_engine_turn_latency_sum"][0][1]
        assert total == pytest.approx(0.324)

    def test_type_headers_precede_samples(self):
        counter("a.count").inc()
        histogram("b.seconds").observe(1.0)
        lines = to_prometheus().splitlines()
        typed = [line for line in lines if line.startswith("# TYPE ")]
        assert "# TYPE repro_a_count_total counter" in typed
        assert "# TYPE repro_b_seconds histogram" in typed
        # Every sample's family has a TYPE line earlier in the output.
        families = {line.split()[2] for line in typed}
        assert len(families) == len(typed)  # one TYPE per family

    def test_custom_registry_and_empty_namespace(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("x.y").inc(7)
        text = to_prometheus(registry, namespace="")
        assert "x_y_total 7" in text
        assert "repro_" not in text


# -- one record, one read path ------------------------------------------------


#: A scripted swiss session: a discovery that asks back, the reply, a
#: data question, its follow-up and an abstention.
FIVE_TURNS = (
    "what data do you have about employment",
    "employment",
    "how many employees are there",
    "and for bern",
    "please compute the frobnication coefficient",
)

#: The ``# TYPE`` families :data:`FIVE_TURNS` exports: a golden set, since
#: whether a histogram carries a sketch must not change what is exported.
FIVE_TURN_HISTOGRAMS = {
    "repro_core_engine_confidence",
    "repro_core_engine_turn_latency",
    "repro_core_stage_engine_abstention_latency",
    "repro_core_stage_engine_execution_latency",
    "repro_core_stage_engine_intent_latency",
    "repro_core_stage_engine_retrieval_latency",
    "repro_core_stage_engine_verification_latency",
    "repro_core_stage_nl_nl2sql_ground_latency",
    "repro_core_stage_nl_nl2sql_translate_latency",
    "repro_core_stage_soundness_confidence_fuse_latency",
    "repro_nl_ground_confidence",
    "repro_sqldb_executor_seconds",
}
FIVE_TURN_COUNTERS = {
    "repro_core_engine_data_answers_total",
    "repro_core_engine_explained_answers_total",
    "repro_core_session_abstentions_total",
    "repro_core_session_answers_total",
    "repro_core_session_clarifications_total",
    "repro_core_session_questions_total",
    "repro_guidance_clarifications_resolved_total",
    "repro_guidance_suggestions_offered_total",
    "repro_nl_ground_attempts_total",
    "repro_nl_ground_grounded_total",
    "repro_retrieval_bm25_queries_total",
    "repro_retrieval_discovery_queries_total",
    "repro_retrieval_hybrid_dense_contributions_total",
    "repro_retrieval_hybrid_lexical_contributions_total",
    "repro_retrieval_hybrid_queries_total",
    "repro_soundness_verifier_passed_total",
    "repro_sqldb_cache_hits_total",
    "repro_sqldb_cache_misses_total",
    "repro_sqldb_executor_queries_total",
    "repro_sqldb_executor_rows_scanned_total",
    "repro_sqldb_planner_plans_total",
    "repro_sqldb_planner_pushed_conjuncts_total",
    "repro_vector_index_candidates_visited_total",
    "repro_vector_index_distance_computations_total",
    "repro_vector_index_searches_total",
}


def _families(text: str, live_only: bool = False) -> dict[str, str]:
    """Family name -> type for every ``# TYPE`` line (with ``live_only``,
    only the families with a non-zero value or observation count)."""
    samples = _parse_prometheus(text)
    families = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            total = samples[family if kind == "counter" else f"{family}_count"]
            if total[0][1] or not live_only:
                families[family] = kind
    return families


class TestTelemetrySurface:
    @pytest.fixture
    def five_turn_engine(self) -> CDAEngine:
        from repro.datasets import build_swiss_labour_registry

        # A cold bundle: the cache counters do not depend on test order.
        bundle = build_swiss_labour_registry(seed=0)
        engine = CDAEngine(bundle.registry, bundle.vocabulary)
        for question in FIVE_TURNS:
            engine.ask(question)
        return engine

    def test_only_the_turn_latency_carries_a_sketch(self, engine):
        answer = engine.ask("how many employees are there")
        assert answer.trace.children
        for registry in (get_registry(), engine.session.metrics):
            observed = [
                registry.get(name) for name in registry.names()
                if registry.get(name).kind == "histogram" and registry.get(name).count
            ]
            assert any(h.name.startswith("core.stage.") for h in observed)
            sketched = [h.name for h in observed if h.sketch is not None]
            assert sketched == ["core.engine.turn.latency"]

    def test_exported_families_are_unchanged(self, five_turn_engine):
        golden = {
            **dict.fromkeys(FIVE_TURN_HISTOGRAMS, "histogram"),
            **dict.fromkeys(FIVE_TURN_COUNTERS, "counter"),
        }
        assert _families(to_prometheus(five_turn_engine.session.metrics)) == golden
        # The process registry also holds what other tests registered.
        assert _families(to_prometheus(), live_only=True) == golden

    def test_scorecard_p1_reads_the_turn_latency_sketch(self, five_turn_engine):
        sketch = five_turn_engine.session.metrics.get("core.engine.turn.latency").sketch
        assert sketch.count == len(FIVE_TURNS)
        checks = {
            check.name: check
            for check in five_turn_engine.scorecard().verdict("P1").checks
        }
        assert checks["turn latency p50 (s)"].value == sketch.quantile(0.5)
        assert checks["turn latency p95 (s)"].value == sketch.quantile(0.95)


# -- Chrome trace export ------------------------------------------------------


class TestChromeTraceExport:
    def test_engine_ask_trace_is_perfetto_loadable(self, engine):
        answer = engine.ask("how many employees are there")
        document = to_chrome_trace(answer.trace)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"
        slices = [event for event in events if event["ph"] == "X"]
        assert slices[0]["name"] == "engine.ask"
        assert slices[0]["ts"] == 0.0
        names = {event["name"] for event in slices}
        assert {"engine.intent", "engine.execution"} <= names
        for event in slices:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert event["cat"] == event["name"].split(".", 1)[0]
        # Children nest inside the root's time window.
        root_end = slices[0]["ts"] + slices[0]["dur"]
        for event in slices[1:]:
            assert event["ts"] + event["dur"] <= root_end + 1e-6
        # And the whole document is valid JSON.
        assert json.loads(chrome_trace_json(answer.trace)) == document

    def test_error_spans_carry_status_and_message(self):
        with start_trace("engine.ask") as root:
            try:
                with span("engine.execution"):
                    raise RuntimeError("exploded")
            except RuntimeError:
                pass
        events = to_chrome_trace(root)["traceEvents"]
        failed = next(e for e in events if e.get("name") == "engine.execution")
        assert failed["args"]["status"] == "error"
        assert failed["args"]["error"] == "RuntimeError: exploded"

    def test_attributes_are_coerced_to_json(self):
        with start_trace("root", rows=(1, 2)) as root:
            pass
        document = to_chrome_trace(root)
        args = document["traceEvents"][1]["args"]
        assert args["rows"] == [1, 2]
        json.dumps(document)  # must not raise


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_scorecard_prometheus_and_trace_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "turn.json"
        exit_code = main([
            "--domain", "swiss",
            "--ask", "how many employees are there",
            "--scorecard", "--prometheus",
            "--export-trace", str(trace_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Reliability scorecard" in output
        assert "P1 Efficiency" in output and "P5 Guidance" in output
        assert "repro_core_engine_turn_latency_count" in output
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"][1]["name"] == "engine.ask"
        exposition = output[output.index("# HELP"):output.index("trace written")]
        _parse_prometheus(exposition)  # the exposition block parses

    def test_export_trace_without_a_turn_reports_gracefully(self, tmp_path, capsys):
        from repro.__main__ import main, build_engine

        engine = build_engine("swiss", None)
        args = type("Args", (), {
            "scorecard": False, "prometheus": False,
            "export_trace": str(tmp_path / "missing.json"),
        })()
        from repro.__main__ import epilogue

        epilogue(engine, args, None)
        assert "no traced turn" in capsys.readouterr().out
