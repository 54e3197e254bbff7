"""Seasonal-period detection with statistical confidence.

The Figure 1 system answers "the best fitted seasonal period is 6
(confidence 90%)".  Here the period is the autocorrelation-function peak
over candidate lags, and the confidence has an actual statistical
meaning: the ACF value at the winning lag is compared against the
large-sample null band (±1.96/√n under no autocorrelation, Bartlett), and
the reported confidence is the normal-CDF probability that the observed
peak is not noise, shrunk by how decisively it beats the runner-up lag.

When the series is too short to estimate any candidate lag from at least
two full cycles, the detector *abstains* (``sufficient = False``) instead
of reporting a period — P4's "refrain from producing answers" applied to
analytics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.errors import CDAError
from repro.analytics.timeseries import MIN_PERIODS

#: The standard normal, for the significance test of an ACF peak.
_NORMAL = NormalDist()


@dataclass
class SeasonalityResult:
    """Detected period with confidence and the evidence behind it."""

    period: int | None
    confidence: float
    sufficient: bool
    acf: np.ndarray = field(repr=False, default=None)
    candidates: list[tuple[int, float]] = field(default_factory=list)
    n_observations: int = 0

    @property
    def abstained(self) -> bool:
        """Whether the detector declined to name a period."""
        return self.period is None

    def describe(self) -> str:
        """English rendering of the finding, Figure 1 style."""
        if self.abstained:
            if not self.sufficient:
                return (
                    "I cannot assess seasonality: the series is too short "
                    f"({self.n_observations} observations)."
                )
            return (
                "I found no statistically significant seasonal period in "
                f"this series ({self.n_observations} observations)."
            )
        return (
            f"the best fitted seasonal period is {self.period} "
            f"(confidence {self.confidence:.0%}), estimated from "
            f"{self.n_observations} observations via autocorrelation"
        )


def autocorrelation(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample ACF for lags 0..max_lag (biased estimator, standard)."""
    series = np.asarray(values, dtype=np.float64)
    n = len(series)
    centred = series - series.mean()
    denominator = float(np.dot(centred, centred))
    if denominator == 0.0:
        return np.zeros(max_lag + 1)
    acf = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        acf[lag] = float(np.dot(centred[: n - lag], centred[lag:])) / denominator
    return acf


def detect_seasonality(
    values,
    min_period: int = 2,
    max_period: int | None = None,
    detrend: bool = True,
    significance_z: float = 1.96,
) -> SeasonalityResult:
    """Find the dominant seasonal period of ``values``, with confidence.

    ``detrend`` removes a linear trend first (a strong trend inflates all
    ACF values and masks seasonality).
    """
    series = np.asarray(values, dtype=np.float64)
    if series.ndim != 1:
        raise CDAError("detect_seasonality expects a 1-d series")
    n = len(series)
    if max_period is None:
        max_period = max(min_period, n // MIN_PERIODS - 1)
    max_period = min(max_period, n - 2) if n > 2 else min_period
    # Abstain when even the smallest candidate lag lacks two full cycles.
    if n < MIN_PERIODS * min_period + 2 or max_period < min_period:
        return SeasonalityResult(
            period=None,
            confidence=0.0,
            sufficient=False,
            acf=np.zeros(1),
            n_observations=n,
        )
    if detrend and n >= 3:
        x = np.arange(n, dtype=np.float64)
        slope, intercept = np.polyfit(x, series, 1)
        series = series - (slope * x + intercept)
    acf = autocorrelation(series, max_period)
    candidates: list[tuple[int, float]] = []
    for lag in range(min_period, max_period + 1):
        # Only lags observable over at least MIN_PERIODS cycles qualify.
        if n >= MIN_PERIODS * lag:
            candidates.append((lag, float(acf[lag])))
    if not candidates:
        return SeasonalityResult(
            period=None,
            confidence=0.0,
            sufficient=False,
            acf=acf,
            n_observations=n,
        )
    # Prefer local ACF peaks (acf[lag] >= neighbours); fall back to max.
    peaks = [
        (lag, value)
        for lag, value in candidates
        if value >= acf[lag - 1] and (lag + 1 >= len(acf) or value >= acf[lag + 1])
    ]
    pool = peaks if peaks else candidates
    pool_sorted = sorted(pool, key=lambda pair: (-pair[1], pair[0]))
    best_lag, best_value = pool_sorted[0]
    # Prefer the fundamental: a divisor of the winning lag with comparable
    # ACF is the true period (lag 12 of a period-6 signal is a harmonic).
    for lag, value in pool_sorted[1:]:
        if best_lag % lag == 0 and value >= 0.8 * best_value:
            best_lag, best_value = lag, value
    # Harmonics of the chosen period *support* it; the runner-up for the
    # decisiveness margin is the best non-harmonic competitor.
    runner_value = 0.0
    for lag, value in pool_sorted:
        if lag == best_lag:
            continue
        if lag % best_lag == 0 or best_lag % lag == 0:
            continue
        runner_value = value
        break
    # Significance of the peak against the white-noise band, with a
    # Bonferroni correction for having inspected many candidate lags
    # (otherwise the max over ~n/2 lags of white noise looks "seasonal").
    standard_error = 1.0 / np.sqrt(n)
    z_score = best_value / standard_error
    n_tests = max(1, len(candidates))
    single_tail = 1.0 - _NORMAL.cdf(significance_z)
    corrected_quantile = 1.0 - single_tail / n_tests
    corrected_z = (
        _NORMAL.inv_cdf(corrected_quantile) if corrected_quantile < 1.0 else math.inf
    )
    raw_p = 1.0 - _NORMAL.cdf(z_score)
    corrected_p = min(1.0, raw_p * n_tests)
    significance = 1.0 - corrected_p
    if z_score < corrected_z:
        # No significant peak: abstain from naming a period.  Confidence is
        # over the *named period*, so an abstention reports 0.
        return SeasonalityResult(
            period=None,
            confidence=0.0,
            sufficient=True,
            acf=acf,
            candidates=pool_sorted[:5],
            n_observations=n,
        )
    # Shrink confidence by how decisively the peak beats the runner-up.
    margin = max(0.0, best_value - max(runner_value, 0.0))
    decisiveness = min(1.0, 0.5 + margin / max(best_value, 1e-9))
    confidence = float(min(0.99, significance * decisiveness))
    return SeasonalityResult(
        period=best_lag,
        confidence=confidence,
        sufficient=True,
        acf=acf,
        candidates=pool_sorted[:5],
        n_observations=n,
    )
