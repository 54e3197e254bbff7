"""Query-result caching with version-based invalidation.

Section 3.2 (Efficiency): the whole pipeline "should be accessible by a
holistic optimizer, which identifies optimization opportunities, such as
caching, batched computations, and sharing of computation".  Caching is
the piece a conversational workload rewards most — users revisit the
same aggregates while drilling around them — and the piece that is
*dangerous* without reliability machinery: a stale cached answer is a
silent soundness violation.

The cache is therefore versioned, not timed: every table carries a
monotonically increasing version bumped on any mutation, and a cache
entry records every table object its query touched, with its version.
A lookup whose recorded tables are not the live ones (``is``: a dropped
and re-created table restarts at version 0) or whose versions differ
is a miss, never a stale hit — correctness by construction, measured in
benchmark E11.

An entry holds the one :class:`~repro.sqldb.database.QueryResult` the
miss computed, and a hit hands that object out.  Results are immutable,
so no caller can change what later callers receive, and what is derived
from the entry's result is shared by every turn that reuses it: the
lineage index and the verifier's memos (``QueryResult.provenance_report``
and ``row_verdicts``), which a hit proves still hold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from repro.errors import CatalogError, CDAError
from repro.obs.events import emit
from repro.obs.metrics import counter
from repro.sqldb import ast


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.invalidations = 0

    def snapshot(self) -> dict:
        """The counters plus derived hit rate, as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


def referenced_tables(statement: ast.SelectStatement) -> list[str]:
    """Lower-cased names of every table a SELECT reads, each once.

    FROM and JOIN tables of the statement, of its UNION arms and of every
    scalar or IN subquery in any clause (``ast.walk_expression`` stops at
    a subquery's scope, so inner statements are walked here).
    """
    return list(dict.fromkeys(ref.name.lower() for ref in _table_refs(statement)))


def _table_refs(statement: ast.SelectStatement) -> Iterator[ast.TableRef]:
    if statement.from_table is not None:
        yield statement.from_table
    yield from (join.table for join in statement.joins)
    clauses = [item.expression for item in (*statement.items, *statement.order_by)]
    clauses += [join.condition for join in statement.joins]
    clauses += [statement.where, statement.having, *statement.group_by]
    for expression in filter(None, clauses):
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
                yield from _table_refs(node.statement)
    if statement.union is not None:
        yield from _table_refs(statement.union[1])


def _versions(tables) -> tuple[int, ...]:
    return tuple(table.version for table in tables)


class QueryCache:
    """LRU cache of SELECT results keyed by canonical SQL, valid while the
    tables they read are the same objects at the same versions."""

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise CDAError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[tuple, tuple, object]] = OrderedDict()
        self.stats = CacheStats()
        # Registry handles are fetched once here; `MetricsRegistry.reset()`
        # zeroes metrics in place, so these stay valid across test resets.
        self._metric_hits = counter("sqldb.cache.hits")
        self._metric_misses = counter("sqldb.cache.misses")
        self._metric_invalidations = counter("sqldb.cache.invalidations")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when never used)."""
        return self.stats.hit_rate

    def get(self, statement: ast.SelectStatement, catalog, flags: tuple = ()):
        """The cached result, or None on miss / version change.

        ``flags`` joins the key: results computed under different capture
        settings (lineage/how) carry different annotations and must not
        satisfy each other's lookups.
        """
        key = (statement.to_sql(), flags)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._metric_misses.inc()
            return None
        tables, versions, result = entry
        try:
            # Identity, never ``==`` (a Table compares every row): a dropped
            # and re-created table restarts at version 0.
            same = all(catalog.table(table.name) is table for table in tables)
            fresh = same and _versions(tables) == versions
        except Exception:  # noqa: BLE001 - dropped table: invalidate
            fresh = False
        if not fresh:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._metric_invalidations.inc()
            self._metric_misses.inc()
            emit("sqldb.cache.invalidation", sql=key[0])
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._metric_hits.inc()
        return result

    def put(
        self, statement: ast.SelectStatement, catalog, result, flags: tuple = ()
    ) -> None:
        """Store a result under the current tables and their versions."""
        key = (statement.to_sql(), flags)
        try:
            tables = tuple(map(catalog.table, referenced_tables(statement)))
        except CatalogError:  # a subquery that never ran names a missing table
            return
        self._entries[key] = (tables, _versions(tables), result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry (stats are kept unless ``reset_stats``)."""
        self._entries.clear()
        if reset_stats:
            self.stats.reset()
