"""Flight recorder: capture, black-box serialisation, config round-trip.

The capture side of the PR-5 loop: every ``CDAEngine.ask`` leaves a
:class:`~repro.obs.recorder.TurnRecording` in the bounded ring, the ring
serialises to a versioned JSONL black box, anomalous turns auto-dump,
and the two satellites it rests on — a lossless
``ReliabilityConfig.to_dict/from_dict`` and a deterministic
``Session.state_digest`` — hold under property-based scrutiny.
The replay/divergence side lives in ``tests/test_replay.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine, ReliabilityConfig
from repro.core.session import Session
from repro.guidance.clarification import ClarificationMode, ClarificationQuestion
from repro.guidance.conversation_graph import TurnKind
from repro.nl.grammar import FilterSpec, QueryIntent
from repro.nl.nl2sql import GroundingConfig
from repro.obs import (
    BLACKBOX_VERSION,
    BlackBox,
    FlightRecorder,
    SLOThresholds,
    TurnTally,
    counter,
)


QUESTIONS = (
    "how many employees are there",
    "what is the average salary by canton",
    "what data do you have about employment",
    "employment",
)


@pytest.fixture
def engine(swiss_domain):
    return CDAEngine(swiss_domain.registry, swiss_domain.vocabulary)


# -- satellite: ReliabilityConfig round trip ----------------------------------


_config_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "use_grounded_parser": st.booleans(),
        "use_llm_fallback": st.booleans(),
        "consistency_samples": st.integers(min_value=1, max_value=9),
        "use_constrained_decoding": st.booleans(),
        "query_cache_size": st.one_of(
            st.none(), st.integers(min_value=1, max_value=4096)
        ),
        "attach_explanations": st.booleans(),
        "record_turns": st.booleans(),
        "recorder_capacity": st.integers(min_value=1, max_value=2048),
        "recorder_dump_dir": st.one_of(st.none(), st.just("/tmp/boxes")),
        "tracing": st.booleans(),
        "verification_depth": st.sampled_from(
            ["none", "static", "reexecution", "provenance"]
        ),
        "abstention_threshold": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "allow_abstention": st.booleans(),
        "clarification_mode": st.sampled_from(list(ClarificationMode)),
        "offer_suggestions": st.booleans(),
        "adapt_to_expertise": st.booleans(),
        "grounding": st.builds(
            GroundingConfig,
            use_vocabulary=st.booleans(),
            use_value_index=st.booleans(),
            min_match_score=st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            ),
        ),
        "slo": st.builds(
            SLOThresholds,
            turn_p50_seconds=st.floats(
                min_value=1e-4, max_value=10.0, allow_nan=False
            ),
            abstention_rate_ceiling=st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            ),
        ),
    },
)


class TestConfigRoundTrip:
    @given(kwargs=_config_kwargs)
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_is_lossless(self, kwargs):
        config = ReliabilityConfig(**kwargs)
        payload = config.to_dict()
        # The black box stores this payload as JSON: the JSON round-trip
        # must be part of the loop.
        decoded = json.loads(json.dumps(payload))
        restored = ReliabilityConfig.from_dict(decoded)
        assert restored == config
        assert restored.to_dict() == payload

    def test_presets_round_trip(self):
        for preset in (
            ReliabilityConfig.full(),
            ReliabilityConfig.llm_only(),
            ReliabilityConfig.grounded_no_verify(),
            ReliabilityConfig.no_guidance(),
        ):
            assert ReliabilityConfig.from_dict(preset.to_dict()) == preset

    def test_unknown_keys_raise(self):
        payload = ReliabilityConfig.full().to_dict()
        payload["use_time_travel"] = True
        with pytest.raises(ValueError, match="use_time_travel"):
            ReliabilityConfig.from_dict(payload)

    def test_removed_optimizer_key_raises(self):
        # Black boxes recorded before the interpreted executor was removed
        # carry this key; replaying one must fail loudly, not silently.
        payload = ReliabilityConfig.full().to_dict()
        payload["use_query_optimizer"] = True
        with pytest.raises(ValueError) as raised:
            ReliabilityConfig.from_dict(payload)
        assert str(raised.value) == (
            "unknown ReliabilityConfig keys: ['use_query_optimizer']"
        )

    def test_payload_is_json_safe(self):
        payload = ReliabilityConfig.full().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["clarification_mode"] == "when_ambiguous"
        assert isinstance(payload["grounding"], dict)
        assert isinstance(payload["slo"], dict)


# -- satellite: deterministic session state digest ----------------------------


class TestStateDigest:
    def _scripted_session(self, order=("canton", "sector")) -> Session:
        session = Session()
        turn = session.record_user_turn("how many employees", TurnKind.USER_QUESTION)
        session.record_system_turn(
            "There are 8000.", TurnKind.SYSTEM_ANSWER, turn, confidence=0.91
        )
        session.focus_table = "employees"
        for column in order:
            session.used_group_columns.add(column)
        return session

    def test_identical_histories_share_a_digest(self):
        assert (
            self._scripted_session().state_digest()
            == self._scripted_session().state_digest()
        )

    def test_set_insertion_order_does_not_matter(self):
        forward = self._scripted_session(order=("canton", "sector"))
        backward = self._scripted_session(order=("sector", "canton"))
        assert forward.state_digest() == backward.state_digest()

    def test_any_state_change_moves_the_digest(self):
        base = self._scripted_session()
        changed = self._scripted_session()
        changed.focus_table = "departments"
        assert base.state_digest() != changed.state_digest()
        extra_turn = self._scripted_session()
        extra_turn.record_user_turn("and for bern?", TurnKind.USER_QUESTION)
        assert base.state_digest() != extra_turn.state_digest()

    def test_every_context_field_moves_the_digest(self):
        # One change per key of the context tail (several for the keys
        # that hold more than one value); each changes that key alone.
        def pending(original="q", text="which?", options=("a", "b"), subject="table"):
            def mutate(session):
                session.open_clarification(
                    original, ClarificationQuestion(text, list(options)), subject
                )
            return mutate

        def intent(**fields):
            def mutate(session):
                session.last_intent = QueryIntent(
                    **{"table": "t", "select_columns": ["a"], **fields}
                )
            return mutate

        def bump(name):
            def mutate(session):
                setattr(session, name, getattr(session, name) + 1)
            return mutate

        changes = {
            "pending_clarification": [
                pending(),
                pending(original="q2"),
                pending(text="which one?"),
                pending(options=("a", "c")),
                pending(subject="column"),
            ],
            "focus_table": [lambda session: setattr(session, "focus_table", "jobs")],
            "last_intent": [
                intent(),
                intent(select_columns=["b"]),
                intent(filters=[FilterSpec("a", "=", 1)]),
                intent(group_by=["a"]),
            ],
            "used_group_columns": [
                lambda session: session.used_group_columns.add("region")
            ],
            "questions_asked": [bump("questions_asked")],
            "answers_given": [bump("answers_given")],
            "abstentions": [bump("abstentions")],
            "clarifications_asked": [bump("clarifications_asked")],
            "profile": [lambda session: session.profiler.observe("select the median")],
        }
        base = self._scripted_session()
        assert set(changes) == set(base._context_tail())
        digests = {base.state_digest()}
        for key, mutations in changes.items():
            for mutate in mutations:
                changed = self._scripted_session()
                mutate(changed)
                tail, changed_tail = base._context_tail(), changed._context_tail()
                assert tail.pop(key) != changed_tail.pop(key)
                assert tail == changed_tail
                digests.add(changed.state_digest())
        assert len(digests) == 1 + sum(map(len, changes.values()))

    def test_state_dict_is_canonical_json(self):
        state = self._scripted_session().state_dict()
        assert json.loads(json.dumps(state)) == state


# -- capture ------------------------------------------------------------------


class TestEngineCapture:
    def test_every_turn_lands_in_the_recorder(self, engine):
        for question in QUESTIONS:
            engine.ask(question)
        assert len(engine.recorder) == len(QUESTIONS)
        recordings = engine.recorder.recordings()
        assert [r.question for r in recordings] == list(QUESTIONS)
        assert [r.turn_index for r in recordings] == list(range(len(QUESTIONS)))

    def test_output_envelope_contents(self, engine):
        engine.ask(QUESTIONS[0])
        outputs = engine.recorder.last().outputs
        assert outputs["kind"] == "data"
        assert outputs["abstained"] is False
        assert outputs["sql"].lower().startswith("select")
        assert outputs["rows"] and outputs["row_count"] == len(outputs["rows"])
        assert outputs["rows_truncated"] is False
        assert 0.0 < outputs["confidence"]["value"] <= 1.0
        assert outputs["post_digest"] == engine.session.state_digest()
        assert outputs["metrics_delta"]["core.session.questions"] == 1
        assert outputs["latency_s"] > 0
        assert outputs["trace"].find("engine.execution") is not None
        # The span tree is held live and only serialised on to_dict().
        serialised = engine.recorder.last().to_dict()["outputs"]
        assert serialised["trace"]["name"] == "engine.ask"
        # The event slice holds no copy of the turn's timings.
        assert not any(
            event["name"] in ("engine.turn", "engine.stage")
            for event in outputs["events"]
        )

    def test_outputs_keep_capture_time_values(self, engine):
        # The envelope is built on first read, from values captured when
        # the turn ended: mutating the answer afterwards changes nothing.
        answer = engine.ask(QUESTIONS[0])
        assert answer.intent is not None and answer.rows
        expected = {
            "text": answer.text,
            "rows": [list(row) for row in answer.rows],
            "row_count": len(answer.rows),
            "columns": list(answer.columns),
            "sources": list(answer.sources),
            "suggestions": [suggestion.text for suggestion in answer.suggestions],
            "metadata": dict(answer.metadata),
            "intent": repr(answer.intent),
        }
        answer.rows.append(("extra",))
        answer.text = "changed"
        answer.columns.append("extra")
        answer.sources.append("extra")
        answer.suggestions.clear()
        answer.metadata["extra"] = 1
        answer.intent.filters.append(FilterSpec("canton", "=", "bern"))
        answer.intent.aggregates.clear()
        assert repr(answer.intent) != expected["intent"]
        dumped = json.loads(engine.recorder.to_jsonl().splitlines()[-1])
        for outputs in (dumped["outputs"], engine.recorder.last().outputs):
            assert {name: outputs[name] for name in expected} == expected

    def test_zero_increments_leave_no_key(self):
        from repro.datasets import build_swiss_labour_registry

        with TurnTally() as tally:
            counter("test.zero").inc(0)
        assert tally.counts == {}
        # The planner adds its pushed-conjunct count, zero here, on every
        # plan (a cold bundle, so the query is planned, not a cache hit).
        bundle = build_swiss_labour_registry(seed=0)
        engine = CDAEngine(bundle.registry, bundle.vocabulary)
        engine.ask(QUESTIONS[0])
        delta = engine.recorder.last().outputs["metrics_delta"]
        assert delta["sqldb.planner.plans"] == 1
        assert "sqldb.planner.pushed_conjuncts" not in delta
        assert all(delta.values())

    def test_pre_digest_chains_to_previous_post_digest(self, engine):
        fresh_digest = engine.session.state_digest()
        for question in QUESTIONS[:2]:
            engine.ask(question)
        first, second = engine.recorder.recordings()
        assert first.inputs["pre_digest"] == fresh_digest
        assert second.inputs["pre_digest"] == first.outputs["post_digest"]

    def test_ring_is_bounded(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(recorder_capacity=2),
        )
        for question in QUESTIONS[:3]:
            engine.ask(question)
        assert len(engine.recorder) == 2
        assert engine.recorder.dropped == 1
        assert engine.recorder.recordings()[0].question == QUESTIONS[1]

    def test_record_turns_off_disables_capture(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(record_turns=False),
        )
        assert engine.recorder is None
        answer = engine.ask(QUESTIONS[0])
        assert answer.kind.value == "data"

    def test_untraced_turns_still_capture(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(tracing=False),
        )
        engine.ask(QUESTIONS[0])
        outputs = engine.recorder.last().outputs
        assert outputs["kind"] == "data"
        assert outputs["trace"] is None
        assert outputs["latency_s"] > 0


# -- black-box files ----------------------------------------------------------


class TestBlackBox:
    def test_jsonl_round_trip(self, engine, tmp_path):
        for question in QUESTIONS:
            engine.ask(question)
        engine.recorder.context.update(domain="swiss", seed=0)
        path = tmp_path / "box.jsonl"
        engine.recorder.dump(path)
        blackbox = BlackBox.load(path)
        assert blackbox.header["version"] == BLACKBOX_VERSION
        assert blackbox.header["domain"] == "swiss"
        assert blackbox.header["config"] == engine.config.to_dict()
        assert len(blackbox) == len(QUESTIONS)
        for loaded, live in zip(blackbox.turns, engine.recorder.recordings()):
            assert loaded.to_dict() == json.loads(json.dumps(live.to_dict()))

    def test_header_resolves_fingerprint_lazily(self):
        recorder = FlightRecorder(context={"fingerprint": lambda: "abc123"})
        assert callable(recorder.context["fingerprint"])
        header = recorder.header()
        assert header["fingerprint"] == "abc123"
        assert recorder.context["fingerprint"] == "abc123"  # cached

    def test_engine_header_carries_the_registry_fingerprint(self, engine):
        header = engine.recorder.header()
        assert header["fingerprint"] == engine.registry.fingerprint()

    def test_malformed_blackboxes_raise(self, tmp_path):
        no_header = tmp_path / "no_header.jsonl"
        no_header.write_text(
            '{"record": "turn", "turn_index": 0, "inputs": {}, "outputs": {}}\n'
        )
        with pytest.raises(ValueError, match="no header"):
            BlackBox.load(no_header)
        wrong_version = tmp_path / "wrong_version.jsonl"
        wrong_version.write_text('{"record": "header", "version": 999}\n')
        with pytest.raises(ValueError, match="version"):
            BlackBox.load(wrong_version)


# -- registry fingerprint -----------------------------------------------------


class TestRegistryFingerprint:
    def test_stable_within_and_across_builds(self, swiss_domain):
        from repro.datasets import build_swiss_labour_registry

        assert (
            swiss_domain.registry.fingerprint()
            == swiss_domain.registry.fingerprint()
        )
        rebuilt = build_swiss_labour_registry(seed=7)
        assert (
            rebuilt.registry.fingerprint() == swiss_domain.registry.fingerprint()
        )

    def test_data_changes_move_the_fingerprint(self):
        from repro.datasets import build_swiss_labour_registry

        changed_seed = build_swiss_labour_registry(seed=8)
        baseline = build_swiss_labour_registry(seed=7)
        assert (
            changed_seed.registry.fingerprint()
            != baseline.registry.fingerprint()
        )


# -- dump-on-anomaly ----------------------------------------------------------


class TestAnomalies:
    def test_error_turn_is_flagged_and_dumped(self, swiss_domain, tmp_path):
        from repro.nl import SimulatedLLM

        dump_dir = tmp_path / "boxes"
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(
                use_grounded_parser=False,
                use_constrained_decoding=False,
                consistency_samples=1,
                recorder_dump_dir=str(dump_dir),
            ),
            llm=SimulatedLLM(
                swiss_domain.registry.database.catalog,
                error_rate=0.0,
                sample_fidelity=1.0,
            ),
        )
        answer = engine.ask(
            "how many employees are there",
            llm_gold_sql="SELECT * FROM phantom_table",
        )
        assert answer.kind.value == "error"
        recording = engine.recorder.last()
        assert recording.anomaly == "error"
        dumped = list(dump_dir.glob("blackbox-turn*.jsonl"))
        assert len(dumped) == 1
        assert BlackBox.load(dumped[0]).turns[-1].anomaly == recording.anomaly

    def test_latency_slo_breach_is_flagged(self, swiss_domain):
        config = ReliabilityConfig(slo=SLOThresholds(turn_p95_seconds=0.0))
        engine = CDAEngine(swiss_domain.registry, swiss_domain.vocabulary, config)
        engine.ask(QUESTIONS[0])
        assert "latency_slo_breach" in engine.recorder.last().anomaly

    def test_clean_turns_are_not_flagged(self, engine):
        engine.ask(QUESTIONS[0])
        assert engine.recorder.last().anomaly is None


# -- CLI ----------------------------------------------------------------------


class TestRecordCLI:
    def test_record_flag_writes_a_blackbox(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "session.jsonl"
        exit_code = main([
            "--domain", "swiss",
            "--ask", "how many employees are there",
            "--record", str(path),
        ])
        assert exit_code == 0
        assert "black box written" in capsys.readouterr().out
        blackbox = BlackBox.load(path)
        assert blackbox.header["domain"] == "swiss"
        assert len(blackbox) == 1
        assert blackbox.turns[0].outputs["kind"] == "data"
