"""Confidence calibration: metrics and a recalibrator.

"Accurately quantifying the confidence of responses requires the system
to be able to evaluate when it is competent" (Section 2.2).  Competence
evaluation starts with measurement:

* :func:`expected_calibration_error` (ECE) — the standard binned gap
  between stated confidence and empirical accuracy;
* :func:`brier_score`, :func:`auroc` — proper scoring and discrimination;
* :class:`IsotonicCalibrator` — post-hoc recalibration fitted on
  held-out (confidence, correctness) pairs, with the classic
  pool-adjacent-violators algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SoundnessError


def _validate(confidences, correctness) -> tuple[np.ndarray, np.ndarray]:
    conf = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correctness, dtype=np.float64)
    if conf.shape != correct.shape or conf.ndim != 1:
        raise SoundnessError("confidences and correctness must be equal-length 1-d")
    if len(conf) == 0:
        raise SoundnessError("need at least one observation")
    if np.any((conf < 0) | (conf > 1)):
        raise SoundnessError("confidences must lie in [0, 1]")
    if np.any((correct != 0) & (correct != 1)):
        raise SoundnessError("correctness must be 0/1")
    return conf, correct


def expected_calibration_error(
    confidences, correctness, n_bins: int = 10
) -> float:
    """Binned |accuracy - confidence| weighted by bin mass (lower = better)."""
    conf, correct = _validate(confidences, correctness)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    total = len(conf)
    ece = 0.0
    for lower, upper in zip(edges[:-1], edges[1:]):
        if upper == 1.0:
            mask = (conf >= lower) & (conf <= upper)
        else:
            mask = (conf >= lower) & (conf < upper)
        count = int(mask.sum())
        if count == 0:
            continue
        bin_confidence = float(conf[mask].mean())
        bin_accuracy = float(correct[mask].mean())
        ece += (count / total) * abs(bin_accuracy - bin_confidence)
    return float(ece)


def brier_score(confidences, correctness) -> float:
    """Mean squared error between confidence and the 0/1 outcome."""
    conf, correct = _validate(confidences, correctness)
    return float(np.mean((conf - correct) ** 2))


def auroc(confidences, correctness) -> float:
    """Probability a random correct answer outranks a random wrong one.

    Computed via the rank-sum (Mann-Whitney) statistic with midrank tie
    handling.  Degenerate inputs (all correct / all wrong) return 0.5.
    """
    conf, correct = _validate(confidences, correctness)
    positives = conf[correct == 1]
    negatives = conf[correct == 0]
    if len(positives) == 0 or len(negatives) == 0:
        return 0.5
    # Midranks over the pooled sample.
    pooled = np.concatenate([positives, negatives])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled), dtype=np.float64)
    sorted_values = pooled[order]
    position = 0
    while position < len(pooled):
        tie_end = position
        while (
            tie_end + 1 < len(pooled)
            and sorted_values[tie_end + 1] == sorted_values[position]
        ):
            tie_end += 1
        midrank = (position + tie_end) / 2.0 + 1.0
        ranks[order[position : tie_end + 1]] = midrank
        position = tie_end + 1
    rank_sum = float(ranks[: len(positives)].sum())
    n_pos = len(positives)
    n_neg = len(negatives)
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))


class IsotonicCalibrator:
    """Monotone recalibration via pool-adjacent-violators (PAV)."""

    def __init__(self) -> None:
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, confidences, correctness) -> "IsotonicCalibrator":
        """Fit an isotonic map confidence -> P(correct)."""
        conf, correct = _validate(confidences, correctness)
        order = np.argsort(conf, kind="stable")
        x = conf[order]
        y = correct[order].astype(np.float64)
        # PAV: maintain blocks of (mean, weight), merging while decreasing.
        means: list[float] = []
        weights: list[float] = []
        for value in y:
            means.append(float(value))
            weights.append(1.0)
            while len(means) > 1 and means[-2] > means[-1]:
                merged_weight = weights[-2] + weights[-1]
                merged_mean = (
                    means[-2] * weights[-2] + means[-1] * weights[-1]
                ) / merged_weight
                means[-2:] = [merged_mean]
                weights[-2:] = [merged_weight]
        # Expand blocks back to points.
        fitted = np.empty(len(y))
        position = 0
        for mean, weight in zip(means, weights):
            count = int(round(weight))
            fitted[position : position + count] = mean
            position += count
        self._x = x
        self._y = fitted
        return self

    def transform(self, confidences) -> np.ndarray:
        """Piecewise-constant interpolation of the fitted isotonic map."""
        if self._x is None or self._y is None:
            raise SoundnessError("calibrator not fitted")
        conf = np.asarray(confidences, dtype=np.float64)
        indices = np.searchsorted(self._x, conf, side="right") - 1
        indices = np.clip(indices, 0, len(self._y) - 1)
        return self._y[indices]
