"""Per-session reliability scorecard: metrics → P1–P5 verdicts.

The paper's five reliability properties are requirements, and PR 3's
spans and counters are raw measurements; this module is the judge that
connects them.  :func:`build_scorecard` reads a metrics registry (the
session's own, from ``Session.scorecard``) and a session snapshot,
compares each property's observable signals against the SLO thresholds
in :class:`SLOThresholds` (carried by
:class:`~repro.core.config.ReliabilityConfig` as ``config.slo``), and
returns a :class:`Scorecard` of pass/warn/fail verdicts:

* **P1 Efficiency** — turn latency quantiles (from the quantile sketch
  of the ``core.engine.turn.latency`` histogram) against the latency SLOs,
  plus query-cache effectiveness;
* **P2 Grounding** — what fraction of grounded-parser attempts landed,
  and how confidently;
* **P3 Explainability** — the fraction of data answers carrying a
  complete provenance-backed explanation;
* **P4 Soundness** — verifier pass rate and abstention discipline from
  the soundness layer;
* **P5 Guidance** — clarification resolution and proactive-suggestion
  rates.

A signal with no observations is *skipped*, never failed: a session
that asked no data questions has nothing to prove about P3.  The
scorecard renders as a terminal report (``python -m repro --scorecard``)
and as JSON (:meth:`Scorecard.to_dict`) for dashboards.

Stdlib only; sessions and configs arrive as plain dicts/dataclasses so
``obs`` keeps importing nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "SLOThresholds",
    "CheckResult",
    "PropertyVerdict",
    "Scorecard",
    "build_scorecard",
    "PROPERTY_TITLES",
]

#: The paper's property names, in order.
PROPERTY_TITLES = {
    "P1": "Efficiency",
    "P2": "Grounding",
    "P3": "Explainability",
    "P4": "Soundness",
    "P5": "Guidance",
}

_STATUS_RANK = {"pass": 0, "warn": 1, "fail": 2}


@dataclass
class SLOThresholds:
    """Service-level objectives the scorecard judges against.

    Defaults are calibrated for the bundled synthetic domains on
    commodity hardware — a deployment would tighten them to its own
    traffic; every threshold is a plain number so configs serialize.
    """

    # P1 Efficiency
    #: Median end-to-end turn latency budget (seconds).
    turn_p50_seconds: float = 0.05
    #: Tail (p95) end-to-end turn latency budget (seconds).
    turn_p95_seconds: float = 0.25
    #: Minimum query-cache hit rate once the cache has seen traffic.
    cache_hit_rate_floor: float = 0.05
    #: Cache lookups below this count are too few to judge.
    cache_min_lookups: int = 5

    # P2 Grounding
    #: Fraction of grounded-parser attempts that must succeed.
    grounding_coverage_floor: float = 0.5
    #: Mean grounding confidence of successful parses.
    grounding_confidence_floor: float = 0.5

    # P3 Explainability
    #: Fraction of data answers that must carry a provenance explanation.
    provenance_coverage_floor: float = 0.95

    # P4 Soundness
    #: Fraction of verification runs that must pass.
    verification_pass_floor: float = 0.9
    #: Maximum tolerable abstention rate over user questions.
    abstention_rate_ceiling: float = 0.5

    # P5 Guidance
    #: Fraction of clarification questions that must get resolved.
    clarification_resolution_floor: float = 0.5
    #: Proactive suggestions offered per delivered answer.
    suggestion_rate_floor: float = 0.1

    #: Relative band around a threshold that downgrades a miss to warn.
    warn_margin: float = 0.2


@dataclass
class CheckResult:
    """One measured signal against one threshold."""

    name: str
    status: str  # "pass" | "warn" | "fail" | "skip"
    value: float | None
    threshold: float | None
    #: Which direction satisfies the threshold (">=" or "<=").
    direction: str = ">="
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "name": self.name,
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "direction": self.direction,
            "detail": self.detail,
        }

    def describe(self) -> str:
        """One-line rendering for the text report."""
        if self.status == "skip":
            return f"{self.name}: no data ({self.detail or 'skipped'})"
        return (
            f"{self.name}: {_fmt(self.value)} {self.direction} "
            f"{_fmt(self.threshold)} [{self.status}]"
        )


@dataclass
class PropertyVerdict:
    """The verdict for one reliability property."""

    prop: str  # "P1".."P5"
    title: str
    status: str  # worst check status, or "skip" when nothing measured
    checks: list[CheckResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "property": self.prop,
            "title": self.title,
            "status": self.status,
            "checks": [check.to_dict() for check in self.checks],
        }


@dataclass
class Scorecard:
    """P1–P5 verdicts for one session, plus the session context."""

    verdicts: list[PropertyVerdict]
    session: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """Worst property status ("skip" when nothing was measurable)."""
        measured = [v.status for v in self.verdicts if v.status != "skip"]
        if not measured:
            return "skip"
        return max(measured, key=lambda status: _STATUS_RANK[status])

    def verdict(self, prop: str) -> PropertyVerdict:
        """The verdict for one property id ("P1".."P5")."""
        for verdict in self.verdicts:
            if verdict.prop == prop:
                return verdict
        raise KeyError(prop)

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--scorecard`` machine output)."""
        return {
            "status": self.status,
            "session": dict(self.session),
            "properties": [verdict.to_dict() for verdict in self.verdicts],
        }

    def render_text(self) -> str:
        """The terminal report behind ``python -m repro --scorecard``."""
        lines = [
            "Reliability scorecard — "
            f"{self.session.get('questions_asked', 0)} questions, "
            f"{self.session.get('answers_given', 0)} answered, "
            f"{self.session.get('abstentions', 0)} abstained",
        ]
        for verdict in self.verdicts:
            lines.append(
                f"  {verdict.prop} {verdict.title:<15} {verdict.status.upper()}"
            )
            for check in verdict.checks:
                lines.append(f"      {check.describe()}")
        lines.append(f"overall: {self.status.upper()}")
        return "\n".join(lines)


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _check(
    name: str,
    value: float | None,
    threshold: float,
    *,
    higher_is_better: bool = True,
    warn_margin: float = 0.2,
    detail: str = "",
) -> CheckResult:
    """Grade one signal; ``value=None`` means no data → skip, and only a
    skip carries ``detail`` (the reason there is no data)."""
    direction = ">=" if higher_is_better else "<="
    if value is None:
        return CheckResult(name, "skip", None, threshold, direction, detail)
    if higher_is_better:
        if value >= threshold:
            status = "pass"
        elif value >= threshold * (1.0 - warn_margin):
            status = "warn"
        else:
            status = "fail"
    else:
        if value <= threshold:
            status = "pass"
        elif value <= threshold * (1.0 + warn_margin):
            status = "warn"
        else:
            status = "fail"
    return CheckResult(name, status, value, threshold, direction)


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _counter_value(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0


def build_scorecard(
    session: dict | None = None,
    registry: MetricsRegistry | None = None,
    thresholds: SLOThresholds | None = None,
) -> Scorecard:
    """Judge the current metrics against the SLOs, property by property.

    ``session`` is a :meth:`repro.core.session.Session.snapshot` dict
    (question/answer/abstention/clarification tallies); ``registry``
    defaults to the process registry (``Session.scorecard`` passes the
    session's own).
    """
    session = session or {}
    registry = registry if registry is not None else get_registry()
    slo = thresholds or SLOThresholds()
    margin = slo.warn_margin
    verdicts = [
        _judge_p1(registry, slo, margin),
        _judge_p2(registry, slo, margin),
        _judge_p3(registry, slo, margin),
        _judge_p4(session, registry, slo, margin),
        _judge_p5(session, registry, slo, margin),
    ]
    return Scorecard(verdicts=verdicts, session=dict(session))


def _verdict(prop: str, checks: list[CheckResult]) -> PropertyVerdict:
    measured = [check.status for check in checks if check.status != "skip"]
    status = (
        max(measured, key=lambda item: _STATUS_RANK[item]) if measured else "skip"
    )
    return PropertyVerdict(
        prop=prop, title=PROPERTY_TITLES[prop], status=status, checks=checks
    )


def _judge_p1(
    registry: MetricsRegistry, slo: SLOThresholds, margin: float
) -> PropertyVerdict:
    latency = registry.get("core.engine.turn.latency")
    sketch = latency.sketch if latency is not None else None
    p50 = p95 = None
    if sketch is not None and sketch.count:
        p50 = sketch.quantile(0.5)
        p95 = sketch.quantile(0.95)
    hits = _counter_value(registry, "sqldb.cache.hits")
    misses = _counter_value(registry, "sqldb.cache.misses")
    lookups = hits + misses
    hit_rate = (
        hits / lookups if lookups >= slo.cache_min_lookups else None
    )
    return _verdict("P1", [
        _check(
            "turn latency p50 (s)", p50, slo.turn_p50_seconds,
            higher_is_better=False, warn_margin=margin,
            detail="no turn latencies recorded",
        ),
        _check(
            "turn latency p95 (s)", p95, slo.turn_p95_seconds,
            higher_is_better=False, warn_margin=margin,
            detail="no turn latencies recorded",
        ),
        _check(
            "query-cache hit rate", hit_rate, slo.cache_hit_rate_floor,
            warn_margin=margin,
            detail=f"fewer than {slo.cache_min_lookups} cache lookups",
        ),
    ])


def _judge_p2(
    registry: MetricsRegistry, slo: SLOThresholds, margin: float
) -> PropertyVerdict:
    attempts = _counter_value(registry, "nl.ground.attempts")
    grounded = _counter_value(registry, "nl.ground.grounded")
    confidence = registry.get("nl.ground.confidence")
    mean_confidence = (
        confidence.mean if confidence is not None and confidence.count else None
    )
    return _verdict("P2", [
        _check(
            "grounding coverage", _ratio(grounded, attempts),
            slo.grounding_coverage_floor, warn_margin=margin,
            detail="grounded parser never ran",
        ),
        _check(
            "mean grounding confidence", mean_confidence,
            slo.grounding_confidence_floor, warn_margin=margin,
            detail="no successful groundings",
        ),
    ])


def _judge_p3(
    registry: MetricsRegistry, slo: SLOThresholds, margin: float
) -> PropertyVerdict:
    data_answers = _counter_value(registry, "core.engine.data_answers")
    explained = _counter_value(registry, "core.engine.explained_answers")
    return _verdict("P3", [
        _check(
            "provenance coverage", _ratio(explained, data_answers),
            slo.provenance_coverage_floor, warn_margin=margin,
            detail="no data answers delivered",
        ),
    ])


def _judge_p4(
    session: dict,
    registry: MetricsRegistry,
    slo: SLOThresholds,
    margin: float,
) -> PropertyVerdict:
    passed = _counter_value(registry, "soundness.verifier.passed")
    failed = _counter_value(registry, "soundness.verifier.failed")
    questions = session.get("questions_asked", 0)
    abstentions = session.get("abstentions", 0)
    return _verdict("P4", [
        _check(
            "verification pass rate", _ratio(passed, passed + failed),
            slo.verification_pass_floor, warn_margin=margin,
            detail="verifier never ran",
        ),
        _check(
            "abstention rate",
            _ratio(abstentions, questions),
            slo.abstention_rate_ceiling,
            higher_is_better=False, warn_margin=margin,
            detail="no user questions",
        ),
    ])


def _judge_p5(
    session: dict,
    registry: MetricsRegistry,
    slo: SLOThresholds,
    margin: float,
) -> PropertyVerdict:
    asked = session.get("clarifications_asked", 0)
    resolved = _counter_value(registry, "guidance.clarifications.resolved")
    offered = _counter_value(registry, "guidance.suggestions.offered")
    answers = session.get("answers_given", 0)
    return _verdict("P5", [
        _check(
            "clarification resolution", _ratio(resolved, asked),
            slo.clarification_resolution_floor, warn_margin=margin,
            detail="no clarifications asked",
        ),
        _check(
            "suggestions per answer", _ratio(offered, answers),
            slo.suggestion_rate_floor, warn_margin=margin,
            detail="no answers delivered",
        ),
    ])
