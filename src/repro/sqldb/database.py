"""Public facade over the relational substrate.

:class:`Database` is what the rest of the CDA system talks to: it owns a
:class:`~repro.sqldb.catalog.Catalog`, parses and executes SQL, records
per-query statistics, and packages results as :class:`QueryResult` objects
that carry provenance alongside the data — the "answers + annotations"
data layer (e) of Figure 1.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExecutionError
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.provenance.semiring import Polynomial
from repro.sqldb import ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.compile import compile_expression
from repro.sqldb.executor import Lineage, SelectExecutor
from repro.sqldb.expressions import RowLayout
from repro.sqldb.parser import parse_sql
from repro.sqldb.table import Table
from repro.sqldb.types import Column, ColumnType, Schema, SQLValue


@dataclass
class QueryResult:
    """A query answer annotated with its provenance.

    ``lineage[i]`` is the set of base rows that produced ``rows[i]``;
    ``how[i]`` (when how-provenance capture is on) is the N[X] polynomial
    describing how they combined.  ``sql`` and ``statement`` record the
    query provenance required by P3.
    """

    columns: list[str]
    rows: list[tuple[SQLValue, ...]]
    sql: str
    statement: ast.SelectStatement | None = None
    lineage: list[Lineage] = field(default_factory=list)
    how: list[Polynomial] | None = None
    elapsed_seconds: float = 0.0
    scanned_rows: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        """Whether the result has no rows."""
        return not self.rows

    def column(self, name: str) -> list[SQLValue]:
        """All values of the output column ``name``."""
        key = name.lower()
        for index, column_name in enumerate(self.columns):
            if column_name.lower() == key:
                return [row[index] for row in self.rows]
        raise ExecutionError(f"no such output column: {name!r}")

    def scalar(self) -> SQLValue:
        """The single value of a 1x1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_records(self) -> list[dict[str, SQLValue]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def all_source_rows(self) -> Lineage:
        """Union of the lineage of every output row."""
        return frozenset().union(*self.lineage)


@dataclass
class QueryStats:
    """Aggregate execution statistics for a :class:`Database`."""

    queries_executed: int = 0
    total_elapsed_seconds: float = 0.0
    total_scanned_rows: int = 0


class Database:
    """An in-memory SQL database with provenance-annotated answers."""

    def __init__(
        self,
        name: str = "default",
        capture_lineage: bool = True,
        capture_how: bool = False,
        cache_size: int | None = None,
    ):
        self.name = name
        self.catalog = Catalog()
        self.capture_lineage = capture_lineage
        self.capture_how = capture_how
        self.stats = QueryStats()
        self._metric_queries = counter("sqldb.executor.queries")
        self._metric_rows_scanned = counter("sqldb.executor.rows_scanned")
        self._metric_seconds = histogram("sqldb.executor.seconds")
        self.cache = None
        if cache_size is not None:
            from repro.sqldb.cache import QueryCache

            self.cache = QueryCache(max_entries=cache_size)

    # -- schema management ---------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[Column],
        primary_key: str | None = None,
        description: str = "",
    ) -> Table:
        """Create and register a table from column definitions."""
        table = Table(name=name, schema=Schema(columns=columns), description=description)
        if primary_key is not None:
            table.set_primary_key(primary_key)
        self.catalog.add_table(table)
        return table

    def add_table(self, table: Table) -> None:
        """Register an externally-built table."""
        self.catalog.add_table(table)

    def load_records(
        self,
        name: str,
        records: list[dict[str, SQLValue]],
        description: str = "",
    ) -> Table:
        """Create a table from dict records with inferred column types."""
        table = Table.from_records(name, records, description=description)
        self.catalog.add_table(table)
        return table

    def load_csv(
        self,
        name: str,
        path: str | Path,
        description: str = "",
    ) -> Table:
        """Load a CSV file (header row required) into a new table.

        Values are parsed as int, then float, then booleans (``true`` /
        ``false``), with empty strings mapping to NULL; everything else
        stays text.
        """
        records: list[dict[str, SQLValue]] = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for raw in reader:
                records.append(
                    {key: _parse_csv_value(value) for key, value in raw.items()}
                )
        return self.load_records(name, records, description=description)

    # -- execution ------------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one SQL statement.

        SELECT returns a populated :class:`QueryResult`; CREATE TABLE and
        INSERT mutate the catalog and return an empty result.
        """
        statement = parse_sql(sql)
        if isinstance(statement, ast.SelectStatement):
            return self.execute_select(statement, sql=sql)
        if isinstance(statement, ast.CreateTableStatement):
            self._execute_create(statement)
            return QueryResult(columns=[], rows=[], sql=sql)
        if isinstance(statement, ast.InsertStatement):
            inserted = self._execute_insert(statement)
            return QueryResult(
                columns=["inserted"], rows=[(inserted,)], sql=sql
            )
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    def execute_select(
        self, statement: ast.SelectStatement, sql: str | None = None
    ) -> QueryResult:
        """Execute an already-parsed SELECT statement (cache-aware)."""
        # Capture flags are part of the cache key: a result computed
        # without how-polynomials must not satisfy a lookup that needs them.
        cache_flags = (self.capture_lineage, self.capture_how)
        if self.cache is not None:
            with span("sqldb.cache.lookup") as cache_span:
                cached = self.cache.get(statement, self.catalog, flags=cache_flags)
                cache_span.set_attribute("hit", cached is not None)
            if cached is not None:
                self.stats.queries_executed += 1
                return _copy_result(cached)
        executor = SelectExecutor(
            self.catalog,
            capture_lineage=self.capture_lineage,
            capture_how=self.capture_how,
        )
        with span("sqldb.executor.execute") as exec_span:
            started = time.perf_counter()
            result = executor.execute(statement)
            elapsed = time.perf_counter() - started
            exec_span.set_attribute("rows", len(result.rows))
            exec_span.set_attribute("scanned_rows", result.scanned_rows)
        self.stats.queries_executed += 1
        self.stats.total_elapsed_seconds += elapsed
        self.stats.total_scanned_rows += result.scanned_rows
        self._metric_queries.inc()
        self._metric_rows_scanned.inc(result.scanned_rows)
        self._metric_seconds.observe(elapsed)
        query_result = QueryResult(
            columns=result.columns,
            rows=result.rows,
            sql=sql if sql is not None else statement.to_sql(),
            statement=statement,
            lineage=result.lineage,
            how=result.how,
            elapsed_seconds=elapsed,
            scanned_rows=result.scanned_rows,
        )
        if self.cache is not None:
            # Store a private copy: callers may mutate the result they
            # received (or be tampered with), and verification relies on
            # re-execution producing the *computed* answer, not whatever
            # the caller's object now holds.
            self.cache.put(
                statement, self.catalog, _copy_result(query_result), flags=cache_flags
            )
        return query_result

    def fetch_source_row(self, table_name: str, row_id: int) -> dict[str, SQLValue]:
        """Resolve one lineage atom back to its base-row record.

        This is the inversion step of P3: given ``(table, row_id)`` from a
        result's lineage, return the original row as a named record.
        """
        table = self.catalog.table(table_name)
        values = table.get_row(row_id)
        return dict(zip(table.column_names, values))

    # -- DDL / DML helpers -------------------------------------------------------------

    def _execute_create(self, statement: ast.CreateTableStatement) -> None:
        columns = []
        primary_key = None
        for definition in statement.columns:
            columns.append(
                Column(
                    name=definition.name,
                    type=ColumnType.from_name(definition.type_name),
                    nullable=not (definition.not_null or definition.primary_key),
                )
            )
            if definition.primary_key:
                primary_key = definition.name
        self.create_table(statement.name, columns, primary_key=primary_key)

    def _execute_insert(self, statement: ast.InsertStatement) -> int:
        table = self.catalog.table(statement.table)
        no_columns = RowLayout([])
        inserted = 0
        for row in statement.rows:
            values = [
                compile_expression(expression, no_columns)(())
                for expression in row
            ]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT row has {len(values)} values for "
                        f"{len(statement.columns)} columns"
                    )
                record = dict(zip(statement.columns, values))
                table.insert_dict(record)
            else:
                table.insert(values)
            inserted += 1
        return inserted


def _copy_result(result: QueryResult) -> QueryResult:
    """Independent copy of a result (rows/lineage lists are rebuilt)."""
    return QueryResult(
        columns=list(result.columns),
        rows=list(result.rows),
        sql=result.sql,
        statement=result.statement,
        lineage=list(result.lineage),
        how=list(result.how) if result.how is not None else None,
        elapsed_seconds=result.elapsed_seconds,
        scanned_rows=result.scanned_rows,
    )


def _parse_csv_value(text: str | None) -> SQLValue:
    if text is None or text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text
