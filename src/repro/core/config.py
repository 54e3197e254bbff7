"""Reliability configuration: each property is a switch.

The E7 benchmark's conditions are literally instances of this class —
``llm_only()`` with everything off, ``full()`` with everything on, and
the intermediate ablations.  Keeping the switches in one object also
documents, in code, exactly which machinery each property corresponds to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.guidance.clarification import ClarificationMode
from repro.nl.nl2sql import GroundingConfig
from repro.obs.scorecard import SLOThresholds


@dataclass
class ReliabilityConfig:
    """Which reliability machinery the engine runs per question."""

    # P2 Grounding ------------------------------------------------------------
    #: Use the grounded semantic parser (vocabulary + schema KG + values).
    use_grounded_parser: bool = True
    grounding: GroundingConfig = field(default_factory=GroundingConfig)

    # NL model ----------------------------------------------------------------
    #: Fall back to the (simulated) LLM when the parser cannot translate.
    use_llm_fallback: bool = True
    #: Samples drawn for consistency-based UQ (1 disables the vote).
    consistency_samples: int = 5
    #: Reject candidates that fail static validation (constrained decoding).
    use_constrained_decoding: bool = True

    # P1 Efficiency -----------------------------------------------------------------
    #: Entries in the versioned query cache (None disables caching).
    query_cache_size: int | None = 256

    # P3 Explainability ----------------------------------------------------------
    #: Attach a provenance-backed explanation to every data answer.
    attach_explanations: bool = True
    #: Capture every turn's input/output envelope in the bounded flight
    #: recorder (``engine.recorder``), so any bad turn can be dumped as a
    #: black-box file and deterministically replayed (see
    #: :mod:`repro.obs.recorder` / :mod:`repro.obs.replay`).
    record_turns: bool = True
    #: Turns the flight recorder keeps (oldest fall off the ring).
    recorder_capacity: int = 256
    #: Directory for automatic black-box dumps when a turn errors,
    #: abstains anomalously, or breaches the p95 latency SLO (None =
    #: flag the anomaly as an event but write nothing).
    recorder_dump_dir: str | None = None
    #: Record a per-turn span tree (``answer.trace``) through every
    #: pipeline stage.  Off = the engine never opens a trace and every
    #: instrumented call site degenerates to a shared no-op (near-zero
    #: overhead, measured by benchmark E15).
    tracing: bool = True
    #: Service-level objectives the reliability scorecard judges the
    #: session against (``Session.scorecard()`` / ``--scorecard``).
    slo: SLOThresholds = field(default_factory=SLOThresholds)

    # P4 Soundness ------------------------------------------------------------------
    #: Verification depth: "none" | "static" | "reexecution" | "provenance".
    verification_depth: str = "provenance"
    #: Abstain when fused confidence falls below this threshold.
    abstention_threshold: float = 0.5
    #: Whether abstention is allowed at all (off = always answer).
    allow_abstention: bool = True

    # P5 Guidance -----------------------------------------------------------------------
    clarification_mode: ClarificationMode = ClarificationMode.WHEN_AMBIGUOUS
    #: Offer proactive suggestions alongside answers.
    offer_suggestions: bool = True
    #: Adapt verbosity to the inferred user expertise.
    adapt_to_expertise: bool = True

    # -- serialisation --------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The whole configuration as one JSON-safe dict.

        Lossless: ``ReliabilityConfig.from_dict(c.to_dict()) == c``.
        The flight recorder stores this in every black-box header so a
        replay runs under *exactly* the recorded switches.
        """
        payload = asdict(self)  # recurses into grounding and slo
        payload["clarification_mode"] = self.clarification_mode.value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReliabilityConfig":
        """Inverse of :meth:`to_dict`.

        Unknown keys raise (a recording from a future config version
        should fail loudly, not replay under silently-dropped switches).
        """
        data = dict(payload)
        kwargs: dict = {}
        if "grounding" in data:
            kwargs["grounding"] = GroundingConfig(**data.pop("grounding"))
        if "slo" in data:
            kwargs["slo"] = SLOThresholds(**data.pop("slo"))
        if "clarification_mode" in data:
            kwargs["clarification_mode"] = ClarificationMode(
                data.pop("clarification_mode")
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ReliabilityConfig keys: {sorted(unknown)}")
        kwargs.update(data)
        return cls(**kwargs)

    # -- presets ------------------------------------------------------------------------

    @classmethod
    def full(cls) -> "ReliabilityConfig":
        """Everything on — the reliable CDA system of the paper."""
        return cls()

    @classmethod
    def llm_only(cls) -> "ReliabilityConfig":
        """The baseline the paper argues against: generate and hope."""
        return cls(
            use_grounded_parser=False,
            use_llm_fallback=True,
            consistency_samples=1,
            use_constrained_decoding=False,
            attach_explanations=False,
            verification_depth="none",
            allow_abstention=False,
            clarification_mode=ClarificationMode.NEVER,
            offer_suggestions=False,
            adapt_to_expertise=False,
        )

    @classmethod
    def grounded_no_verify(cls) -> "ReliabilityConfig":
        """Grounding on, soundness machinery off (E7 intermediate)."""
        return cls(
            verification_depth="none",
            allow_abstention=False,
            consistency_samples=1,
            clarification_mode=ClarificationMode.NEVER,
        )

    @classmethod
    def no_guidance(cls) -> "ReliabilityConfig":
        """Full soundness but never asks or suggests (E6 baseline)."""
        return cls(
            clarification_mode=ClarificationMode.NEVER,
            offer_suggestions=False,
        )
