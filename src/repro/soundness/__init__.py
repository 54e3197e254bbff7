"""Soundness layer (property P4).

The paper requires a reliable CDA system to "judge whether an answer is,
with sufficiently high probability, correct or not", to provide evidence,
and to "refrain from producing answers when unable to produce any answer
with sufficient certainty".  This package implements that machinery:

* :mod:`repro.soundness.consistency` — consistency-based black-box
  uncertainty quantification for text-to-SQL (after Bhattacharjya et al.
  [7]): sample the generator several times, execute the candidates, and
  use answer agreement as the confidence signal;
* :mod:`repro.soundness.calibration` — ECE / Brier / AUROC metrics and
  isotonic recalibration, quantifying the paper's claim that
  self-reported LLM confidence is miscalibrated;
* :mod:`repro.soundness.verifier` — answer verification at increasing
  depth: static validation, re-execution, and provenance-based
  re-derivation of aggregates from cited source rows;
* :mod:`repro.soundness.confidence` — fusion of the signals above into
  one score with an itemised breakdown (so the confidence itself is
  explainable);
* :mod:`repro.soundness.abstention` — selective answering: thresholds,
  risk/coverage curves, and the abstention decision.
"""

from repro.soundness.consistency import ConsistencyResult, ConsistencyUQ
from repro.soundness.calibration import (
    auroc,
    brier_score,
    expected_calibration_error,
    IsotonicCalibrator,
)
from repro.soundness.verifier import (
    AnswerVerifier,
    RowVerdict,
    VerificationReport,
    verify_rows,
)
from repro.soundness.confidence import ConfidenceBreakdown, fuse_confidence
from repro.soundness.reward import (
    RewardAugmentedDecoder,
    RewardModel,
    candidate_features,
)
from repro.soundness.abstention import (
    AbstentionDecision,
    SelectiveAnsweringPolicy,
    risk_coverage_curve,
    area_under_risk_coverage,
)

__all__ = [
    "ConsistencyResult",
    "ConsistencyUQ",
    "auroc",
    "brier_score",
    "expected_calibration_error",
    "IsotonicCalibrator",
    "AnswerVerifier",
    "RowVerdict",
    "VerificationReport",
    "verify_rows",
    "ConfidenceBreakdown",
    "fuse_confidence",
    "AbstentionDecision",
    "SelectiveAnsweringPolicy",
    "risk_coverage_curve",
    "area_under_risk_coverage",
    "RewardAugmentedDecoder",
    "RewardModel",
    "candidate_features",
]
