"""Replay harness: deterministic reproduction + divergence attribution.

The consumption side of the PR-5 loop (capture lives in
``tests/test_recorder.py``): a black box recorded on one engine replays
on a *fresh* engine with zero divergences; a config change injected into
the replay yields a non-empty, field-attributed report; and mutating any
single compared field of a recorded envelope flags exactly that field —
the property that makes the report trustworthy for bisection.

Replay tests build their own registry bundles instead of using the
shared session-scoped domain: record and replay must both start from a
cold query cache, or the cache hit/miss counters (part of each turn's
``metrics_delta``) would differ by test-ordering accident.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine, ReliabilityConfig
from repro.datasets import build_swiss_labour_registry
from repro.obs import (
    BLACKBOX_VERSION,
    BlackBox,
    TurnRecording,
    diff_envelopes,
    replay_session,
)

#: A conversation that exercises the stateful paths: data queries, a
#: discovery turn that opens a clarification, its reply, and a
#: follow-up that refines the previous intent.
SCRIPT = (
    "how many employees are there",
    "average employees by canton",
    "what data do you have about employment",
    "employment",
    "and for bern",
)


def fresh_engine(config: ReliabilityConfig | None = None) -> CDAEngine:
    """An engine over its own cold registry bundle (header replayable)."""
    bundle = build_swiss_labour_registry(seed=0)
    engine = CDAEngine(
        bundle.registry,
        bundle.vocabulary,
        config=config if config is not None else ReliabilityConfig.full(),
    )
    if engine.recorder is not None:
        engine.recorder.context.update(
            domain="swiss", seed=0, llm_error_rate=None
        )
    return engine


def record_script(questions=SCRIPT) -> BlackBox:
    """Run ``questions`` on a fresh engine and return its black box."""
    engine = fresh_engine()
    for question in questions:
        engine.ask(question)
    return BlackBox.loads(engine.recorder.to_jsonl())


#: Twelve turns recorded by the CLI (the first lines of the CI
#: record/replay script) in the version-1 format, whose digests hashed
#: JSON, and the same questions recorded in the current format.
BLACKBOX_V1 = Path(__file__).parent / "data" / "blackbox_v1_swiss.jsonl"
BLACKBOX_V2 = Path(__file__).parent / "data" / "blackbox_v2_swiss.jsonl"


@pytest.fixture(scope="module")
def recorded_script() -> BlackBox:
    """One recorded conversation, shared read-only by this module (each
    turn's delta is read off its own tally, so the process-registry
    resets between tests do not bleed into it)."""
    return record_script()


# -- healthy replay: zero divergences -----------------------------------------


class TestFaithfulReplay:
    def test_script_replays_with_zero_divergences(self, recorded_script):
        report = replay_session(recorded_script)
        assert report.diverged is False
        assert report.divergence_count == 0
        assert report.header_issues == []
        assert len(report.turns) == len(SCRIPT)
        assert "every turn reproduced exactly" in report.render_text()

    def test_hundred_turns_replay_exactly(self):
        questions = [SCRIPT[i % len(SCRIPT)] for i in range(100)]
        blackbox = record_script(questions)
        assert len(blackbox) == 100
        report = replay_session(blackbox)
        assert report.diverged is False
        assert report.divergence_count == 0
        assert len(report.turns) == 100

    def test_replay_carries_latency_diagnostics(self, recorded_script):
        # Timings are never compared, but both envelopes keep them: the
        # turn latency and the span tree with each stage's duration.
        engine = fresh_engine()
        replay_session(recorded_script, engine=engine)
        recorded = recorded_script.turns[0].outputs
        replayed = engine.recorder.recordings()[0].to_dict()["outputs"]
        for outputs in (recorded, replayed):
            assert outputs["latency_s"] > 0
            stages = {
                child["name"]: child["duration_ms"]
                for child in outputs["trace"]["children"]
            }
            assert stages["engine.execution"] > 0

    def test_interleaved_engines_replay_exactly(self):
        # A second engine asking between this one's turns changes the
        # process registry, but not this engine's turn deltas.
        engine, other = fresh_engine(), fresh_engine()
        for question in SCRIPT[:4]:
            engine.ask(question)
            other.ask("how many cantons are there")
            other.ask("average employees by canton")
        report = replay_session(engine.recorder)
        assert report.divergence_count == 0, report.render_text()
        assert len(report.turns) == 4

    def test_version_1_blackbox_is_refused(self):
        # Version 2 hashes repr tuples where version 1 hashed JSON, so a
        # version-1 box's digests can never match: loading says so.
        with pytest.raises(ValueError, match="version 1 is not supported"):
            BlackBox.load(BLACKBOX_V1)

    def test_version_1_answers_match_a_fresh_replay(self):
        # Read as plain JSON, the version-1 turns still replay field for
        # field: every compared field except the two digests (whose
        # format changed) equals a fresh replay's, turn for turn.
        header, *turns = map(json.loads, BLACKBOX_V1.read_text().splitlines())
        assert header["version"] == 1
        blackbox = BlackBox(
            header=header, turns=[TurnRecording.from_dict(turn) for turn in turns]
        )
        report = replay_session(blackbox)
        assert report.header_issues == []
        assert len(report.turns) == 12
        for turn in report.turns:
            flagged = sorted(divergence.field for divergence in turn.divergences)
            assert flagged == ["post_digest", "pre_digest"], turn.question

    def test_version_2_blackbox_replays_exactly(self):
        blackbox = BlackBox.load(BLACKBOX_V2)
        assert blackbox.header["version"] == BLACKBOX_VERSION == 2
        assert [turn.question for turn in blackbox.turns] == [
            json.loads(line)["inputs"]["question"]
            for line in BLACKBOX_V1.read_text().splitlines()[1:]
        ]
        report = replay_session(blackbox)
        assert report.header_issues == []
        assert report.divergence_count == 0, report.render_text()
        assert len(report.turns) == 12

    def test_replay_accepts_a_live_recorder(self):
        engine = fresh_engine()
        engine.ask(SCRIPT[0])
        report = replay_session(engine.recorder)
        assert report.diverged is False
        assert len(report.turns) == 1

    def test_replay_engine_must_record(self, recorded_script):
        disabled = fresh_engine(
            ReliabilityConfig(record_turns=False)
        )
        with pytest.raises(ValueError, match="record_turns"):
            replay_session(recorded_script, engine=disabled)


# -- injected config changes are field-attributed -----------------------------


class TestConfigInjection:
    def test_cache_off_flags_only_the_work_profile(self, recorded_script):
        report = replay_session(
            recorded_script, config_overrides={"query_cache_size": None}
        )
        # Without the query cache every answer is the same by design —
        # the recorder still catches the change through the per-turn
        # counter deltas (the executor did work the cache used to do).
        assert report.diverged is True
        assert report.fields_flagged() == ["metrics_delta"]

    def test_raised_abstention_threshold_flags_the_answers(
        self, recorded_script
    ):
        report = replay_session(
            recorded_script, config_overrides={"abstention_threshold": 0.99}
        )
        assert report.diverged is True
        flagged = report.fields_flagged()
        assert "kind" in flagged and "text" in flagged
        divergence = next(
            d for d in report.divergences() if d.field == "kind"
        )
        assert divergence.recorded == "data"
        assert divergence.replayed == "abstention"
        assert "field 'kind'" in divergence.describe()

    def test_fingerprint_mismatch_is_a_header_issue(self, recorded_script):
        tampered = copy.deepcopy(recorded_script)
        tampered.header["fingerprint"] = "0" * 64
        report = replay_session(tampered)
        assert report.diverged is True
        assert any("fingerprint mismatch" in issue for issue in report.header_issues)

    def test_dropped_turns_are_a_header_issue(self):
        engine = fresh_engine(ReliabilityConfig(recorder_capacity=2))
        engine.recorder.context.update(domain="swiss", seed=0)
        for question in SCRIPT[:3]:
            engine.ask(question)
        blackbox = BlackBox.loads(engine.recorder.to_jsonl())
        report = replay_session(blackbox)
        assert any("fell off" in issue for issue in report.header_issues)


# -- mutation flags exactly the mutated field ---------------------------------


def _mutate_sql(envelope):
    envelope["sql"] = (envelope["sql"] or "") + " -- tampered"
    return "sql"


def _mutate_text(envelope):
    envelope["text"] = envelope["text"] + " (edited)"
    return "text"


def _mutate_confidence(envelope):
    envelope["confidence"]["value"] = round(
        envelope["confidence"]["value"] / 2 + 0.001, 12
    )
    return "confidence"


def _mutate_rows(envelope):
    envelope["rows"][0][0] = 10_000_000
    return "rows"


def _mutate_kind(envelope):
    envelope["kind"] = "metadata" if envelope["kind"] == "data" else "data"
    return "kind"


def _mutate_metrics(envelope):
    name, value = next(iter(envelope["metrics_delta"].items()))
    envelope["metrics_delta"][name] = value + 1
    return "metrics_delta"


def _mutate_digest(envelope):
    digest = envelope["post_digest"]
    envelope["post_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return "post_digest"


MUTATORS = (
    _mutate_sql,
    _mutate_text,
    _mutate_confidence,
    _mutate_rows,
    _mutate_kind,
    _mutate_metrics,
    _mutate_digest,
)


class TestMutationAttribution:
    @given(mutate=st.sampled_from(MUTATORS), turn=st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_diff_flags_exactly_the_mutated_field(
        self, recorded_script, mutate, turn
    ):
        recorded = recorded_script.turns[turn].outputs
        mutated = copy.deepcopy(recorded)
        field = mutate(mutated)
        assert [name for name, _r, _p in diff_envelopes(recorded, mutated)] == [
            field
        ]
        # And the unmutated envelope still diffs clean against itself.
        assert diff_envelopes(recorded, copy.deepcopy(recorded)) == []

    @pytest.mark.parametrize(
        "mutate", [_mutate_sql, _mutate_rows, _mutate_confidence]
    )
    def test_replay_report_attributes_the_tampered_field(
        self, recorded_script, mutate
    ):
        tampered = copy.deepcopy(recorded_script)
        field = mutate(tampered.turns[1].outputs)
        report = replay_session(tampered)
        assert report.diverged is True
        assert report.fields_flagged() == [field]
        (divergence,) = report.divergences()
        assert divergence.turn_index == 1
        clean_turns = [t for t in report.turns if t.turn_index != 1]
        assert all(not t.diverged for t in clean_turns)

    def test_informational_fields_are_never_flagged(self, recorded_script):
        recorded = recorded_script.turns[0].outputs
        mutated = copy.deepcopy(recorded)
        mutated["latency_s"] = 99.0
        mutated["events"] = []
        mutated["trace"] = None
        assert diff_envelopes(recorded, mutated) == []


# -- CLI record → replay ------------------------------------------------------


class TestReplayCLI:
    def test_record_then_replay_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        path = tmp_path / "session.jsonl"
        monkeypatch.setattr(
            "sys.stdin", _FakeStdin(["how many employees are there", ""])
        )
        assert main(["--domain", "swiss", "--record", str(path)]) == 0
        capsys.readouterr()
        exit_code = main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "0 divergences" in out
        assert "every turn reproduced exactly" in out

    def test_replay_exits_nonzero_on_divergence(self, tmp_path, capsys):
        from repro.__main__ import main

        blackbox = record_script(SCRIPT[:1])
        blackbox.turns[0].outputs["sql"] = "SELECT 42"
        path = tmp_path / "tampered.jsonl"
        lines = [json.dumps(blackbox.header, sort_keys=True)]
        lines.extend(
            json.dumps(turn.to_dict(), sort_keys=True) for turn in blackbox.turns
        )
        path.write_text("\n".join(lines) + "\n")
        exit_code = main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "field 'sql'" in out

    @pytest.mark.parametrize(
        "header, message",
        [
            ('{"record": "header", "version": 999}', "version 999 is not supported"),
            (BLACKBOX_V1.read_text(), "version 1 is not supported"),
        ],
    )
    def test_unsupported_version_exits_2(self, tmp_path, capsys, header, message):
        # A file that cannot be replayed is not a divergence (exit 1): one
        # error line on stderr, nothing on stdout, exit 2.
        from repro.__main__ import main

        path = tmp_path / "box.jsonl"
        path.write_text(header)
        assert main(["--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["--replay", str(tmp_path / "absent.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "absent.jsonl" in captured.err
        assert captured.err.count("\n") == 1


class _FakeStdin:
    """Just enough of a stdin for the CLI's input() loop."""

    def __init__(self, lines):
        self._lines = iter(lines)

    def readline(self):
        try:
            return next(self._lines) + "\n"
        except StopIteration:
            return ""
