"""Search & analytics routines (part of layer ``b``, Figure 1).

The running example of the paper ends with the system producing
"the plot with the trend, seasonality and residual components", a fitted
seasonal period with a confidence, and the acknowledgement that results
were "computed only where enough data was present".  This package is that
machinery:

* :mod:`repro.analytics.timeseries` — moving-average decomposition into
  trend + seasonal + residual;
* :mod:`repro.analytics.seasonality` — ACF-based period detection with a
  statistical confidence and an explicit *insufficient-data abstention*;
* :mod:`repro.analytics.stats` — descriptive statistics and correlation;
* :mod:`repro.analytics.outliers` — IQR outlier detection.

Every routine reports *how* its numbers were computed (parameters, data
coverage), feeding the provenance layer.
"""

from repro.analytics.timeseries import Decomposition, decompose, sufficient_data
from repro.analytics.seasonality import SeasonalityResult, detect_seasonality
from repro.analytics.stats import (
    DescriptiveStats,
    describe,
    pearson_correlation,
)
from repro.analytics.outliers import OutlierReport, iqr_outliers

__all__ = [
    "Decomposition",
    "decompose",
    "sufficient_data",
    "SeasonalityResult",
    "detect_seasonality",
    "DescriptiveStats",
    "describe",
    "pearson_correlation",
    "OutlierReport",
    "iqr_outliers",
]
