"""Structured events: what happened during a turn, in order.

Spans answer "where did this turn's time go"; counters answer "how much
work".  What neither captures is a discrete occurrence: a cache
invalidation, a verifier failure, the abstention that preceded a
clarification.  :func:`emit` records one as a plain dict (``name``,
``severity``, ``attrs``) on the active turn's
:class:`~repro.obs.metrics.TurnTally`, so the flight recorder reads a
turn's events straight off its tally.  Outside a turn (a bare
``Database``, ``engine.discover``) there is no tally and the event is
dropped; its severity is still checked.  No event copies a stage or
turn duration.

Stdlib only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from repro.obs.metrics import _TALLY

__all__ = ["SEVERITIES", "emit"]

#: Recognised severities, least to most severe.
SEVERITIES = ("debug", "info", "warning", "error")


def emit(name: str, severity: str = "info", **attrs) -> None:
    """Record one event (dotted ``layer.component.event`` name) on the
    active turn's tally; a no-op outside a turn."""
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}")
    tally = _TALLY.get()
    if tally is not None:
        tally.events.append({"name": name, "severity": severity, "attrs": attrs})
