"""In-memory relational engine with native provenance capture.

This package is the structured-data substrate of the CDA system (layer
``d`` of Figure 1).  It is a small but complete SQL engine:

* :mod:`repro.sqldb.tokenizer` / :mod:`repro.sqldb.parser` — SQL text to a
  typed AST (``SELECT`` with joins, ``WHERE``, ``GROUP BY``/``HAVING``,
  ``ORDER BY``, ``LIMIT``, ``DISTINCT``, plus ``CREATE TABLE`` and
  ``INSERT``).
* :mod:`repro.sqldb.planner` / :mod:`repro.sqldb.compile` — a logical
  plan (pushdown, hash-join keys) and per-row closures for expressions.
* :mod:`repro.sqldb.executor` — runs the plan one operator at a time;
  its operators capture **where-provenance** (which base rows produced
  each output row) and **how-provenance** (the semiring polynomial
  describing how they combined), which the explainability layer (P3)
  consumes.
* :mod:`repro.sqldb.database` — the public facade used by everything else.

The engine trades raw speed for transparency: every answer the CDA system
produces from structured data can be traced back to base-table cells, which
is precisely the capability the paper says off-the-shelf components lack.
"""

from repro.sqldb.types import Column, ColumnType, Schema
from repro.sqldb.table import Table
from repro.sqldb.catalog import Catalog
from repro.sqldb.database import Database, QueryResult
from repro.sqldb.parser import parse_sql
from repro.sqldb.tokenizer import tokenize
from repro.sqldb.cache import QueryCache

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Table",
    "Catalog",
    "Database",
    "QueryResult",
    "parse_sql",
    "tokenize",
    "QueryCache",
]
