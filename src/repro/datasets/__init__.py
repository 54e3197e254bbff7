"""Synthetic data sources (layer ``d``, Figure 1).

The paper's experiments need data the authors used but we cannot ship —
most prominently the Swiss Labour Market Barometer of the running
example.  Each module here synthesises a domain with *known ground truth*
(planted seasonal periods, planted group differences), which is what lets
the analytics-soundness benchmark (E9) score the system's confidence
claims against reality:

* :mod:`repro.datasets.registry` — the registry tying tables, documents,
  and per-source metadata together;
* :mod:`repro.datasets.swiss_labour` — the synthetic Swiss labour-market
  domain (barometer time series + employment tables);
* :mod:`repro.datasets.ecommerce` — an e-commerce analytics domain;
* :mod:`repro.datasets.healthcare` — a healthcare cohort domain.
"""

from repro.datasets.registry import DataSourceInfo, DataSourceRegistry
from repro.datasets.swiss_labour import build_swiss_labour_registry
from repro.datasets.ecommerce import build_ecommerce_registry
from repro.datasets.healthcare import build_healthcare_registry

__all__ = [
    "DataSourceInfo",
    "DataSourceRegistry",
    "build_swiss_labour_registry",
    "build_ecommerce_registry",
    "build_healthcare_registry",
]
