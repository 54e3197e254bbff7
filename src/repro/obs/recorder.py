"""Flight recorder: bounded, always-on capture of every engine turn.

Spans say where a turn's time went, counters say how much work it did,
events say what happened — but none of them can *reproduce* the turn.
The flight recorder closes that loop: for every ``CDAEngine.ask`` it
keeps the input envelope (question, oracle SQL for the simulated LLM,
the session-state digest before the turn; the serialized
:class:`~repro.core.config.ReliabilityConfig` and the dataset
fingerprint sit in the header) and the output envelope (answer fields,
SQL, confidence, abstention, rows, turn latency, span tree, the
post-turn state digest, and the turn's events and counter delta — read
off the turn's own :class:`~repro.obs.metrics.TurnTally`, so they count
only what that ``ask`` did) in a bounded ring — old turns fall off the
back, so the recorder is always on and never grows.  The output
envelope is lazy: the turn is captured by reference (:func:`capture`)
and the envelope built on the first read of ``outputs``.

The buffer serialises as a versioned JSONL "black-box" file (one header
line, one line per turn) via :meth:`FlightRecorder.dump` /
``python -m repro --record PATH``, and :class:`BlackBox` loads one back.
:mod:`repro.obs.replay` re-executes a black box on a fresh engine and
diffs each replayed output envelope against the recorded one with
:func:`diff_envelopes` — only the :data:`COMPARED_FIELDS` participate;
the turn latency, the span tree and the events are captured for
diagnosis but never flagged, so a healthy replay reports **zero
divergences**.

Like the rest of :mod:`repro.obs` this module is stdlib-only and
imports nothing from the wider package: the answer object is accessed
duck-typed, which is what lets every layer import the recorder without
cycles.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.obs.exporters import _jsonable, to_dict as span_to_dict

__all__ = [
    "BLACKBOX_VERSION",
    "COMPARED_FIELDS",
    "TurnRecording",
    "FlightRecorder",
    "BlackBox",
    "capture",
    "output_envelope",
    "diff_envelopes",
]

#: Black-box file format version (bumped on envelope layout changes;
#: version 1 digests hashed JSON, version 2 digests hash ``repr`` tuples).
BLACKBOX_VERSION = 2

#: Output-envelope fields the replay harness compares, in report order.
#: Everything else in the envelope (latency, span durations, the events)
#: is captured for diagnosis only.
COMPARED_FIELDS = (
    "kind",
    "abstained",
    "text",
    "sql",
    "confidence",
    "rows",
    "columns",
    "sources",
    "suggestions",
    "clarification",
    "verification",
    "explanation_attached",
    "intent",
    "metadata",
    "metrics_delta",
    "post_digest",
)

#: Rows kept per recorded answer (both record and replay truncate at the
#: same bound, so comparisons stay exact even when truncated).
MAX_RECORDED_ROWS = 200


def capture(answer, latency_s=None, events=None, metrics_delta=None) -> tuple:
    """What :func:`output_envelope` reads of one finished turn, frozen at
    C-level cost: ``answer``'s immutable fields by reference, shallow
    copies of its lists and dict (rows cut to :data:`MAX_RECORDED_ROWS`),
    its intent's ``repr`` (the intent's lists may change later), the
    turn's latency and its tally's events and counts.  ``answer`` is
    duck-typed (the :class:`~repro.core.answer.Answer` surface)."""
    rows, columns, intent = answer.rows, answer.columns, answer.intent
    return (
        answer.kind, answer.text, answer.sql, answer.confidence,
        rows if rows is None else rows[:MAX_RECORDED_ROWS],
        rows if rows is None else len(rows),
        columns if columns is None else list(columns),
        answer.sources[:], answer.suggestions[:], answer.clarification,
        answer.verification, answer.explanation is not None,
        intent if intent is None else repr(intent),
        answer.metadata.copy(), answer.trace, latency_s, events, metrics_delta,
    )


def output_envelope(captured: tuple, post_digest: str | None = None) -> dict:
    """One turn's output envelope (JSON-safe once materialised), built
    from its :func:`capture`.

    Every deterministic output field lands in :data:`COMPARED_FIELDS`
    form; floats are rounded to 12 decimals so the JSON round-trip
    compares exactly.  The diagnosis-only ``trace`` field holds the live
    span tree until the envelope is serialised (see :func:`_materialise`).
    """
    (kind, text, sql, confidence, rows, row_count, columns, sources, suggestions,
     clarification, verification, explained, intent, metadata, trace, latency_s,
     events, metrics_delta) = captured
    if confidence is not None:
        confidence = {
            "value": round(confidence.value, 12),
            "parts": {
                name: round(value, 12)
                for name, value in sorted(confidence.parts.items())
            },
        }
    if clarification is not None:
        clarification = {
            "text": clarification.text,
            "options": list(clarification.options),
            "subject": clarification.subject,
        }
    if verification is not None:
        verification = {
            "depth": verification.depth,
            "passed": verification.passed,
            "checks_run": list(verification.checks_run),
            "issues": list(verification.issues),
        }
    return {
        "kind": kind.value,
        "abstained": kind.value == "abstention",
        "text": text,
        "sql": sql,
        "confidence": confidence,
        "rows": None if rows is None else [_jsonable(list(row)) for row in rows],
        "row_count": row_count,
        "rows_truncated": rows is not None and len(rows) < row_count,
        "columns": columns,
        "sources": sources,
        "suggestions": [suggestion.text for suggestion in suggestions],
        "clarification": clarification,
        "verification": verification,
        "explanation_attached": explained,
        "intent": intent,
        "metadata": _jsonable(metadata),
        "metrics_delta": dict(sorted((metrics_delta or {}).items())),
        "post_digest": post_digest,
        # -- diagnosis-only (never compared) -------------------------------
        # The turn's timing, once: its latency here, its stage timings in
        # the span tree.
        "latency_s": round(latency_s, 9) if latency_s is not None else None,
        # The finished span tree is kept as the live object and only
        # serialised when the envelope leaves the process (to_dict) —
        # per-turn capture must not pay for a full tree walk.
        "trace": trace,
        "events": list(events or []),
    }


def _materialise(outputs: dict) -> dict:
    """``outputs`` with its lazy span tree serialised (cached in place)."""
    trace = outputs.get("trace")
    if trace is not None and not isinstance(trace, dict):
        outputs["trace"] = span_to_dict(trace)
    return outputs


def diff_envelopes(
    recorded: dict, replayed: dict
) -> list[tuple[str, object, object]]:
    """Field-level differences between two output envelopes.

    Returns ``(field, recorded_value, replayed_value)`` for each of the
    :data:`COMPARED_FIELDS` that differs — and exactly those: mutating
    one compared field of an envelope flags that field and nothing else.
    """
    differences = []
    for field_name in COMPARED_FIELDS:
        recorded_value = recorded.get(field_name)
        replayed_value = replayed.get(field_name)
        if recorded_value != replayed_value:
            differences.append((field_name, recorded_value, replayed_value))
    return differences


@dataclass
class TurnRecording:
    """One captured turn: the input envelope and the output envelope
    (built from the turn's :func:`capture` on first read, or loaded)."""

    turn_index: int
    inputs: dict
    #: The session-state digest after the turn (the next one's before).
    post_digest: str | None = None
    #: Comma-joined anomaly reasons ("error", "unexpected_abstention",
    #: "latency_slo_breach"), or None for a clean turn.
    anomaly: str | None = None
    captured: tuple | None = field(default=None, repr=False)

    @cached_property
    def outputs(self) -> dict:
        """The output envelope (built on first read, then cached)."""
        return output_envelope(self.captured, self.post_digest)

    @property
    def question(self) -> str:
        """The user text that opened this turn."""
        return self.inputs.get("question", "")

    def to_dict(self) -> dict:
        """JSONL line payload."""
        return {
            "record": "turn",
            "turn_index": self.turn_index,
            "inputs": self.inputs,
            "outputs": _materialise(self.outputs),
            "anomaly": self.anomaly,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TurnRecording":
        """Inverse of :meth:`to_dict`."""
        recording = cls(
            turn_index=payload["turn_index"],
            inputs=payload["inputs"],
            post_digest=payload["outputs"].get("post_digest"),
            anomaly=payload.get("anomaly"),
        )
        recording.outputs = payload["outputs"]
        return recording


class FlightRecorder:
    """Bounded ring of :class:`TurnRecording` plus the session header.

    ``context`` holds header metadata (serialized config, dataset
    fingerprint, domain name…).  A context value may be a zero-argument
    callable: it is resolved lazily on first :meth:`header` call — the
    engine registers its registry-fingerprint hook this way so the hash
    over every row is only paid when a black box actually leaves the
    process.
    """

    def __init__(self, capacity: int = 256, context: dict | None = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._recordings: deque[TurnRecording] = deque(maxlen=capacity)
        self.context: dict = dict(context or {})
        self.recorded = 0

    # -- capture ----------------------------------------------------------------

    def record(
        self, question: str, answer, post_digest: str | None = None,
        latency_s: float | None = None, events: list[dict] | None = None,
        metrics_delta: dict | None = None, gold_sql: str | None = None,
        pre_digest: str | None = None,
    ) -> TurnRecording:
        """Append one turn, captured by reference (oldest falls off past
        ``capacity``); its output envelope is built on first read."""
        recording = TurnRecording(
            turn_index=self.recorded,
            inputs={
                "question": question,
                "gold_sql": gold_sql,
                "pre_digest": pre_digest,
            },
            post_digest=post_digest,
            captured=capture(answer, latency_s, events, metrics_delta),
        )
        self._recordings.append(recording)
        self.recorded += 1
        return recording

    # -- queries ----------------------------------------------------------------

    def recordings(self) -> list[TurnRecording]:
        """Buffered turns, oldest first."""
        return list(self._recordings)

    def last(self) -> TurnRecording | None:
        """The most recent recording (None when empty)."""
        return self._recordings[-1] if self._recordings else None

    @property
    def dropped(self) -> int:
        """Turns that fell off the back of the ring."""
        return self.recorded - len(self._recordings)

    def __len__(self) -> int:
        return len(self._recordings)

    # -- serialisation ----------------------------------------------------------

    def header(self) -> dict:
        """The black-box header line (callable context values resolved
        in place and cached for later dumps)."""
        for key, value in list(self.context.items()):
            if callable(value):
                self.context[key] = value()
        return {
            "record": "header",
            "version": BLACKBOX_VERSION,
            "recorded": self.recorded,
            "dropped": self.dropped,
            **self.context,
        }

    def to_jsonl(self) -> str:
        """The whole black box as JSONL (header line + one line/turn)."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(
            json.dumps(recording.to_dict(), sort_keys=True)
            for recording in self._recordings
        )
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        """Write the black-box JSONL file to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def reset(self) -> None:
        """Drop every buffered turn (context and capacity kept)."""
        self._recordings.clear()
        self.recorded = 0


@dataclass
class BlackBox:
    """A loaded black-box file: the header plus its turns."""

    header: dict
    turns: list[TurnRecording] = field(default_factory=list)

    @classmethod
    def loads(cls, text: str) -> "BlackBox":
        """Parse black-box JSONL produced by :meth:`FlightRecorder.to_jsonl`."""
        header: dict | None = None
        turns: list[TurnRecording] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            payload = json.loads(line)
            kind = payload.get("record")
            if kind == "header":
                if header is not None:
                    raise ValueError("black box has more than one header line")
                version = payload.get("version")
                if version == 1:
                    raise ValueError(
                        "black box version 1 is not supported: its digests hash "
                        "JSON, version 2 hashes repr tuples; re-record the box"
                    )
                if version != BLACKBOX_VERSION:
                    raise ValueError(
                        f"black box version {version!r} is not supported "
                        f"(expected {BLACKBOX_VERSION})"
                    )
                header = payload
            elif kind == "turn":
                turns.append(TurnRecording.from_dict(payload))
            else:
                raise ValueError(
                    f"line {line_number}: unknown record kind {kind!r}"
                )
        if header is None:
            raise ValueError("black box has no header line")
        return cls(header=header, turns=turns)

    @classmethod
    def load(cls, path) -> "BlackBox":
        """Read and parse the black-box file at ``path``."""
        with open(path, encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def __len__(self) -> int:
        return len(self.turns)
