"""Descriptive statistics and correlation routines.

Small, audited, and NULL-aware: values arrive straight from
:class:`~repro.sqldb.database.QueryResult` columns, so every routine
filters ``None`` explicitly and reports how many observations it used —
the "coverage" half of a sound analytics answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CDAError


@dataclass
class DescriptiveStats:
    """Summary of a numeric sample, with coverage accounting."""

    count: int
    nulls: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    def describe(self) -> str:
        """One-line English summary."""
        return (
            f"n={self.count} (plus {self.nulls} missing), "
            f"mean={self.mean:.2f}, std={self.std:.2f}, "
            f"range=[{self.minimum:.2f}, {self.maximum:.2f}], "
            f"median={self.median:.2f}"
        )


def _clean(values) -> tuple[np.ndarray, int]:
    kept = [
        float(value)
        for value in values
        if value is not None and not isinstance(value, (str, bool))
    ]
    nulls = len(list(values)) - len(kept)
    return np.asarray(kept, dtype=np.float64), nulls


def describe(values) -> DescriptiveStats:
    """Descriptive statistics of a (possibly NULL-bearing) numeric list."""
    sample, nulls = _clean(list(values))
    if len(sample) == 0:
        raise CDAError("describe needs at least one non-null numeric value")
    return DescriptiveStats(
        count=len(sample),
        nulls=nulls,
        mean=float(sample.mean()),
        std=float(sample.std(ddof=1)) if len(sample) > 1 else 0.0,
        minimum=float(sample.min()),
        q25=float(np.percentile(sample, 25)),
        median=float(np.percentile(sample, 50)),
        q75=float(np.percentile(sample, 75)),
        maximum=float(sample.max()),
    )


@dataclass
class CorrelationResult:
    """Pearson correlation with significance."""

    coefficient: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05."""
        return self.p_value < 0.05

    def describe(self) -> str:
        """English rendering with effect-size wording."""
        magnitude = abs(self.coefficient)
        if magnitude >= 0.7:
            strength = "strong"
        elif magnitude >= 0.4:
            strength = "moderate"
        elif magnitude >= 0.2:
            strength = "weak"
        else:
            strength = "negligible"
        direction = "positive" if self.coefficient >= 0 else "negative"
        significance = "significant" if self.significant else "not significant"
        return (
            f"a {strength} {direction} correlation "
            f"(r={self.coefficient:.2f}, p={self.p_value:.3g}, n={self.n}; "
            f"{significance} at alpha=0.05)"
        )


def pearson_correlation(values_a, values_b) -> CorrelationResult:
    """Pearson r between two columns; rows with a NULL on either side drop."""
    list_a = list(values_a)
    list_b = list(values_b)
    if len(list_a) != len(list_b):
        raise CDAError("correlation requires equal-length columns")
    pairs = [
        (float(a), float(b))
        for a, b in zip(list_a, list_b)
        if a is not None and b is not None
        and not isinstance(a, (str, bool)) and not isinstance(b, (str, bool))
    ]
    if len(pairs) < 3:
        raise CDAError("correlation needs at least 3 complete pairs")
    array_a = np.array([a for a, _b in pairs])
    array_b = np.array([b for _a, b in pairs])
    if float(array_a.std()) == 0.0 or float(array_b.std()) == 0.0:
        raise CDAError("correlation undefined for a constant column")
    # scipy is imported here, not at module level: no turn computes a
    # correlation, and importing it would dominate the package's start-up.
    from scipy.stats import pearsonr

    coefficient, p_value = pearsonr(array_a, array_b)
    return CorrelationResult(
        coefficient=float(coefficient), p_value=float(p_value), n=len(pairs)
    )
