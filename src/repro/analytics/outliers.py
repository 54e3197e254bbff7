"""Outlier detection by Tukey's IQR rule.

The report carries the *rule it applied* alongside the hits, so the
answer generator can explain an anomaly report ("values beyond 1.5 IQR
outside the quartiles") rather than just assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CDAError


@dataclass
class OutlierReport:
    """Outlier positions and values, plus the decision rule used."""

    method: str
    indices: list[int]
    values: list[float]
    lower_bound: float
    upper_bound: float
    n_observations: int
    parameters: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Number of outliers found."""
        return len(self.indices)

    def describe(self) -> str:
        """English rendering of the finding and the rule."""
        if not self.indices:
            return (
                f"no outliers among {self.n_observations} values "
                f"({self.method} rule, bounds "
                f"[{self.lower_bound:.2f}, {self.upper_bound:.2f}])"
            )
        sample = ", ".join(f"{value:.2f}" for value in self.values[:3])
        suffix = "..." if len(self.values) > 3 else ""
        return (
            f"{self.count} outlier(s) among {self.n_observations} values, "
            f"e.g. {sample}{suffix} ({self.method} rule, bounds "
            f"[{self.lower_bound:.2f}, {self.upper_bound:.2f}])"
        )


def _clean_with_positions(values) -> tuple[np.ndarray, list[int]]:
    cleaned: list[float] = []
    positions: list[int] = []
    for index, value in enumerate(values):
        if value is None or isinstance(value, (str, bool)):
            continue
        cleaned.append(float(value))
        positions.append(index)
    return np.asarray(cleaned, dtype=np.float64), positions


def iqr_outliers(values, multiplier: float = 1.5) -> OutlierReport:
    """Tukey's rule: beyond ``multiplier`` IQRs outside the quartiles."""
    sample, positions = _clean_with_positions(list(values))
    if len(sample) < 4:
        raise CDAError("IQR outlier detection needs at least 4 values")
    q25 = float(np.percentile(sample, 25))
    q75 = float(np.percentile(sample, 75))
    iqr = q75 - q25
    lower = q25 - multiplier * iqr
    upper = q75 + multiplier * iqr
    hits = [
        (positions[i], float(sample[i]))
        for i in range(len(sample))
        if sample[i] < lower or sample[i] > upper
    ]
    return OutlierReport(
        method="IQR",
        indices=[index for index, _value in hits],
        values=[value for _index, value in hits],
        lower_bound=lower,
        upper_bound=upper,
        n_observations=len(sample),
        parameters={"multiplier": multiplier},
    )
