"""Observability layer: tracing, metrics, events, verdicts, exporters.

The cross-cutting layer of the reproduction: every other package
reports *into* it (spans via :mod:`repro.obs.trace`, tallies via
:mod:`repro.obs.metrics`, occurrences via :mod:`repro.obs.events`) and
the engine exports *out of* it — a turn trace as a dict, text or Chrome
trace-event JSON, the registry as Prometheus exposition (all in
:mod:`repro.obs.exporters`), and the whole
session as P1–P5 reliability verdicts (:mod:`repro.obs.scorecard`).
Quantiles come only from a mergeable relative-error-bounded quantile
sketch (:mod:`repro.obs.sketch`), which a histogram carries only where
a quantile is read: the turn latency, for the scorecard's P1.

Each measurement has one per-turn record: a turn's stage timings live
in its span tree, its latency in the flight recorder's ``latency_s``,
its counter delta and events on the turn's
:class:`~repro.obs.metrics.TurnTally`.  Events hold only what no span or
counter records (abstentions, clarifications, cache invalidations,
verifier failures).  After the turn the engine folds the tally into its
session's registry, which the scorecard judges; the process registry
(:func:`~repro.obs.metrics.get_registry`) is the sum over all engines.

Dependency-free by design — stdlib only — so any layer can import it
without cycles, and disabled instrumentation costs one no-op call.
"""

from repro.obs.trace import NULL_SPAN, Span, current_span, span, start_trace
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    TurnTally,
    counter,
    get_registry,
    histogram,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.events import SEVERITIES, emit
from repro.obs.exporters import (
    chrome_trace_json,
    render_text,
    sanitize_metric_name,
    stage_timings,
    to_chrome_trace,
    to_dict,
    to_prometheus,
)
from repro.obs.scorecard import (
    CheckResult,
    PropertyVerdict,
    Scorecard,
    SLOThresholds,
    build_scorecard,
)
from repro.obs.recorder import (
    BLACKBOX_VERSION,
    COMPARED_FIELDS,
    BlackBox,
    FlightRecorder,
    TurnRecording,
    diff_envelopes,
    output_envelope,
)
from repro.obs.replay import (
    DivergenceReport,
    FieldDivergence,
    TurnReplay,
    build_engine_for_header,
    replay_session,
)

__all__ = [
    "Span",
    "NULL_SPAN",
    "span",
    "start_trace",
    "current_span",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TurnTally",
    "get_registry",
    "counter",
    "histogram",
    "QuantileSketch",
    "SEVERITIES",
    "emit",
    "to_dict",
    "render_text",
    "stage_timings",
    "to_prometheus",
    "to_chrome_trace",
    "chrome_trace_json",
    "sanitize_metric_name",
    "SLOThresholds",
    "CheckResult",
    "PropertyVerdict",
    "Scorecard",
    "build_scorecard",
    "BLACKBOX_VERSION",
    "COMPARED_FIELDS",
    "BlackBox",
    "FlightRecorder",
    "TurnRecording",
    "diff_envelopes",
    "output_envelope",
    "DivergenceReport",
    "FieldDivergence",
    "TurnReplay",
    "build_engine_for_header",
    "replay_session",
]
