"""Trace and metric exporters: span-tree dicts and text, Prometheus
exposition, Chrome trace JSON.

Internal telemetry earns its keep when it leaves the process and
external tooling can read it:

* :func:`to_dict` turns a turn trace into a nested JSON-ready dict — the
  form the flight recorder stores in a black box, so the trace is a
  queryable object (the Query-By-Provenance view of the pipeline
  itself).  Attribute values are coerced to JSON-safe scalars (anything
  exotic becomes its ``repr``).  :func:`render_text` is the human report
  behind ``python -m repro ... --trace``, and :func:`stage_timings`
  aggregates stage durations across traces;
* :func:`to_prometheus` renders the whole metrics registry in the
  Prometheus text exposition format (version 0.0.4): sanitized metric
  names, ``# TYPE`` headers, counters with the ``_total`` suffix, and
  histograms expanded into the cumulative ``_bucket{le="..."}`` /
  ``_sum`` / ``_count`` triplet — the exact shape a scrape endpoint
  returns, so the registry can back one without translation;
* :func:`to_chrome_trace` converts a span tree into the Chrome
  trace-event format (``"X"`` complete events with microsecond
  timestamps), loadable as-is in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` for flame-graph inspection of a turn.

All are pure functions over :mod:`repro.obs` objects — stdlib only,
no servers or sockets here.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_registry
from repro.obs.trace import Span

__all__ = [
    "to_dict",
    "render_text",
    "stage_timings",
    "sanitize_metric_name",
    "to_prometheus",
    "to_chrome_trace",
    "chrome_trace_json",
]


# -- span trees as dicts and text --------------------------------------------------


def _jsonable(value):
    """``value`` if JSON-representable, else its ``repr``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def to_dict(span: Span) -> dict:
    """The span tree as a nested dictionary (JSON-ready)."""
    payload: dict = {
        "name": span.name,
        "status": span.status,
        "duration_ms": round(span.duration_ms, 6),
    }
    if span.error is not None:
        payload["error"] = span.error
    if span.attributes:
        payload["attributes"] = {
            str(key): _jsonable(value) for key, value in span.attributes.items()
        }
    if span.children:
        payload["children"] = [to_dict(child) for child in span.children]
    return payload


def render_text(span: Span, max_attributes: int = 6) -> str:
    """Indented one-line-per-span report of a turn trace::

        engine.ask                        14.21 ms  ok  question='how many…'
          engine.intent                    0.05 ms  ok  kind='data_query'
          ...

    Attribute values are elided past ``max_attributes`` per span and long
    strings are truncated, keeping the report terminal-sized.
    """
    lines: list[str] = []
    _render_into(span, 0, lines, max_attributes)
    return "\n".join(lines)


def _render_into(
    span: Span, depth: int, lines: list[str], max_attributes: int
) -> None:
    label = "  " * depth + span.name
    parts = [f"{label:<44}", f"{span.duration_ms:9.3f} ms", f" {span.status}"]
    rendered = []
    for index, (key, value) in enumerate(span.attributes.items()):
        if index >= max_attributes:
            rendered.append("…")
            break
        text = repr(value) if isinstance(value, str) else str(value)
        if len(text) > 48:
            text = text[:45] + "…"
        rendered.append(f"{key}={text}")
    if span.error is not None:
        rendered.append(f"error={span.error!r}")
    if rendered:
        parts.append("  " + " ".join(rendered))
    lines.append("".join(parts))
    for child in span.children:
        _render_into(child, depth + 1, lines, max_attributes)


def stage_timings(roots: "Span | list[Span]") -> dict[str, dict]:
    """Aggregate direct-child (stage) durations across one or many traces.

    Returns ``{stage_name: {"count", "total_ms", "mean_ms"}}`` keyed in
    first-seen order — the per-stage breakdown the end-to-end benchmark
    reports instead of a single wall-clock number.
    """
    if isinstance(roots, Span):
        roots = [roots]
    stages: dict[str, dict] = {}
    for root in roots:
        for child in root.children:
            entry = stages.setdefault(
                child.name, {"count": 0, "total_ms": 0.0, "mean_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += child.duration_ms
    for entry in stages.values():
        entry["total_ms"] = round(entry["total_ms"], 6)
        entry["mean_ms"] = round(entry["total_ms"] / entry["count"], 6)
    return stages


# -- Prometheus exposition ---------------------------------------------------------

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, namespace: str = "") -> str:
    """``name`` as a valid Prometheus metric name.

    Dots (our ``layer.component.metric`` scheme) and any other invalid
    character become underscores; a leading digit gets a guard
    underscore; ``namespace`` is prefixed when given.
    """
    sanitized = _INVALID_CHARS.sub("_", name)
    if namespace:
        sanitized = f"{namespace}_{sanitized}"
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value) -> str:
    """A Prometheus-valid sample value (int kept exact, float via repr)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(
    registry: MetricsRegistry | None = None, namespace: str = "repro"
) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Counters gain the conventional ``_total`` suffix; histograms expand
    to cumulative ``_bucket{le="..."}`` series (closed with
    ``le="+Inf"``) plus ``_sum`` and ``_count``.  Output ends with the
    required trailing newline and is ordered by metric name, so scrapes
    diff cleanly.
    """
    registry = registry if registry is not None else get_registry()
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        base = sanitize_metric_name(name, namespace)
        if isinstance(metric, Counter):
            family = base if base.endswith("_total") else f"{base}_total"
            lines.append(f"# HELP {family} {name}")
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, bin_count in zip(metric.buckets, metric.counts):
                cumulative += bin_count
                lines.append(
                    f'{base}_bucket{{le="{_format_value(float(bound))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{base}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{base}_sum {_format_value(metric.total)}")
            lines.append(f"{base}_count {metric.count}")
    return "\n".join(lines) + "\n"


# -- Chrome trace-event JSON -------------------------------------------------------


def to_chrome_trace(root: Span, pid: int = 1, tid: int = 1) -> dict:
    """The span tree as a Chrome trace-event document.

    Every span becomes one ``"X"`` (complete) event with ``ts``/``dur``
    in microseconds, rebased so the root starts at 0.  Attributes,
    status, and any error land in ``args`` where the Perfetto UI shows
    them on selection.  The returned dict serialises directly to a
    ``.json`` file both Perfetto and ``chrome://tracing`` open.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro"},
        }
    ]
    origin_ns = root.start_ns
    for node in root.iter_spans():
        args: dict = {"status": node.status}
        if node.error is not None:
            args["error"] = node.error
        for key, value in node.attributes.items():
            args[str(key)] = _jsonable(value)
        events.append(
            {
                "name": node.name,
                "cat": node.name.split(".", 1)[0],
                "ph": "X",
                "ts": (node.start_ns - origin_ns) / 1e3,
                "dur": node.duration_ns / 1e3,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(root: Span, indent: int | None = None) -> str:
    """:func:`to_chrome_trace` serialised as a JSON document."""
    return json.dumps(to_chrome_trace(root), indent=indent)

