"""Bounded structured event log: the system's flight recorder.

Spans answer "where did this turn's time go"; counters answer "how much
work in total".  What neither captures is *what happened, in order*: a
cache invalidation storm, a run of verifier failures, the abstention
that preceded a clarification.  The event log records those discrete
occurrences as structured entries in a bounded ring buffer — old events
fall off the back, so the recorder is always on and never grows.  It
holds only what no span or metric already records: no event copies a
stage or turn duration.

Each :class:`Event` carries a dotted name (``layer.component.event``),
a severity, free-form attributes, and a timestamp taken from the
monotonic clock *relative to the log's creation* — event times order
and subtract correctly within a process but deliberately carry no
wall-clock meaning (no ``Date.now`` flakiness, nothing to redact).

Stdlib only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import monotonic_ns

__all__ = [
    "Event",
    "EventLog",
    "SEVERITIES",
    "get_event_log",
    "emit",
]

#: Recognised severities, least to most severe.
SEVERITIES = ("debug", "info", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Event:
    """One recorded occurrence."""

    name: str
    severity: str
    #: Nanoseconds since the owning log was created (monotonic-relative).
    t_ns: int
    attrs: dict = field(default_factory=dict)


class EventLog:
    """Ring buffer of :class:`Event`.

    ``capacity`` bounds memory: the log keeps the most recent events and
    silently drops the oldest (``dropped`` counts how many fell off).
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._origin_ns = monotonic_ns()
        self.emitted = 0

    # -- emission ----------------------------------------------------------------

    def emit(self, name: str, severity: str = "info", **attrs) -> Event:
        """Record one event."""
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        event = Event(
            name=name,
            severity=severity,
            t_ns=monotonic_ns() - self._origin_ns,
            attrs=attrs,
        )
        self._events.append(event)
        self.emitted += 1
        return event

    # -- queries -----------------------------------------------------------------

    def events(
        self, prefix: str = "", min_severity: str = "debug"
    ) -> list[Event]:
        """Buffered events, oldest first, filtered by name prefix and
        severity floor."""
        floor = _SEVERITY_RANK[min_severity]
        return [
            event
            for event in self._events
            if event.name.startswith(prefix)
            and _SEVERITY_RANK[event.severity] >= floor
        ]

    @property
    def dropped(self) -> int:
        """Events that fell off the back of the ring."""
        return self.emitted - len(self._events)

    def mark(self) -> int:
        """An opaque position marker for :meth:`since` (the emission
        count so far) — take one before a unit of work to slice out
        exactly the events that work emits."""
        return self.emitted

    def since(self, marker: int) -> list[Event]:
        """Buffered events emitted after ``marker``, oldest first.

        Events that have already fallen off the ring are gone: at most
        the ``emitted - marker`` newest buffered events are returned.
        """
        new = self.emitted - marker
        if new <= 0:
            return []
        if new >= len(self._events):
            return list(self._events)
        # O(new), not O(capacity): a full ring holds 2048 events and
        # per-turn capture slices just the last handful.
        tail = []
        newest_first = reversed(self._events)
        for _ in range(new):
            tail.append(next(newest_first))
        tail.reverse()
        return tail

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop every buffered event and zero the counters in place
        (the time origin is kept)."""
        self._events.clear()
        self.emitted = 0


#: The process-wide default log every layer emits into.
_GLOBAL = EventLog()


def get_event_log() -> EventLog:
    """The global event log (reset it between tests, never replace it)."""
    return _GLOBAL


def emit(name: str, severity: str = "info", **attrs) -> Event:
    """Shorthand for ``get_event_log().emit(...)``."""
    return _GLOBAL.emit(name, severity, **attrs)
