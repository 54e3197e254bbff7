"""Answer verification at increasing depth.

"To achieve soundness, the system should be able to verify how answers
are generated via explainability and provenance" (Section 2.1).  The
verifier offers three depths — benchmark E4's ablation axis:

* ``"static"`` — the SQL parses and type-checks against the catalog
  (catches syntax errors and schema hallucinations, not wrong logic);
* ``"reexecution"`` — execute the recorded SQL again and compare the
  answer with what the database returns: the pristine copy it kept when
  it executed the query.  With the query cache on, that copy is served
  from the cache while the cited tables are unchanged and re-computed
  after a change, so a tampered answer and a stale one both fail.  Rows
  are compared as multisets of their ``repr`` (``1`` and ``1.0`` differ);
* ``"provenance"`` — re-derive the answer from its *cited source rows*,
  set-at-a-time: the lineage of all output rows is grouped by table once,
  existence is one set difference per table, and for single-table
  statements the WHERE clause and the aggregate argument are compiled
  once and evaluated once per distinct cited row; single-table
  aggregates are recomputed from the lineage alone.  Cited rows must come
  from the queried table: a row of any other table is an issue.
  A fabricated answer cannot survive this: its provenance either does not
  exist or does not reproduce it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import is_
from typing import Iterable, Iterator

from repro.errors import CatalogError, SoundnessError
from repro.nl.constrained import SQLValidator
from repro.obs.events import emit
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.sqldb import ast
from repro.sqldb.aggregates import Aggregator, make_aggregator
from repro.sqldb.catalog import Catalog
from repro.sqldb.compile import compile_expression
from repro.sqldb.database import Database, QueryResult
from repro.sqldb.executor import Lineage, SelectExecutor
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.table import Table
from repro.sqldb.types import SQLValue

DEPTHS = ("static", "reexecution", "provenance")


@dataclass
class VerificationReport:
    """Outcome of verifying one answer."""

    depth: str
    passed: bool
    checks_run: list[str] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        """Combine two reports (used when stacking depths)."""
        return VerificationReport(
            depth=other.depth,
            passed=self.passed and other.passed,
            checks_run=self.checks_run + other.checks_run,
            issues=self.issues + other.issues,
        )


class AnswerVerifier:
    """Multi-depth verification against the live database."""

    def __init__(self, database: Database):
        self.database = database
        self._validator = SQLValidator(database.catalog)
        self._passed = counter("soundness.verifier.passed")
        self._failed = counter("soundness.verifier.failed")

    def verify(self, result: QueryResult, depth: str = "provenance") -> VerificationReport:
        """Verify ``result`` at the requested depth (depths are cumulative)."""
        if depth not in DEPTHS:
            raise SoundnessError(f"depth must be one of {DEPTHS}")
        with span("soundness.verifier.verify", depth=depth) as verify_span:
            report = self._verify_at_depth(result, depth)
            verify_span.set_attribute("passed", report.passed)
            verify_span.set_attribute("checks", len(report.checks_run))
        if report.passed:
            self._passed.inc()
        else:
            self._failed.inc()
            emit(
                "soundness.verifier.failure",
                severity="warning",
                depth=report.depth,
                issues=list(report.issues[:3]),
            )
        return report

    def _verify_at_depth(self, result: QueryResult, depth: str) -> VerificationReport:
        report = self._verify_static(result)
        if depth == "static" or not report.passed:
            return report
        report = report.merge(self._verify_reexecution(result))
        if depth == "reexecution" or not report.passed:
            return report
        return report.merge(self._verify_provenance(result))

    # -- depth 1: static -------------------------------------------------------------

    def _verify_static(self, result: QueryResult) -> VerificationReport:
        validation = self._validator.validate(result.sql)
        return VerificationReport(
            depth="static",
            passed=validation.valid,
            checks_run=["sql parses and type-checks against the catalog"],
            issues=list(validation.problems),
        )

    # -- depth 2: re-execution ----------------------------------------------------------

    def _verify_reexecution(self, result: QueryResult) -> VerificationReport:
        issues: list[str] = []
        try:
            replay = self.database.execute(result.sql)
        except Exception as exc:  # noqa: BLE001
            return VerificationReport(
                depth="reexecution",
                passed=False,
                checks_run=["re-execute recorded SQL"],
                issues=[f"re-execution failed: {exc}"],
            )
        if list(replay.columns) != list(result.columns):
            issues.append("re-execution produced different columns")
        if not _same_row_multiset(replay.rows, result.rows):
            issues.append("re-execution produced different rows")
        return VerificationReport(
            depth="reexecution",
            passed=not issues,
            checks_run=["re-execute recorded SQL and compare results"],
            issues=issues,
        )

    # -- depth 3: provenance re-derivation --------------------------------------------------

    def _verify_provenance(self, result: QueryResult) -> VerificationReport:
        checks = ["fetch every cited source row"]
        if not result.lineage and result.rows:
            return VerificationReport(
                depth="provenance",
                passed=False,
                checks_run=checks,
                issues=["answer has rows but no lineage was captured"],
            )
        statement = result.statement
        simple = statement is not None and self._is_simple_single_table(statement)
        cited = _CitedRows(
            self.database.catalog, result.lineage, statement if simple else None
        )
        issues = cited.existence_issues(result.lineage)
        if simple:
            checks.append("re-apply WHERE to cited rows")
            issues.extend(self._check_filter_on_lineage(result, statement, cited))
            aggregate = self._single_aggregate(statement)
            if aggregate is not None and not statement.group_by:
                checks.append("recompute aggregate from cited rows alone")
                issues.extend(self._recompute_aggregate(result, aggregate, cited))
        return VerificationReport(
            depth="provenance",
            passed=not issues,
            checks_run=checks,
            issues=issues,
        )

    @staticmethod
    def _is_simple_single_table(statement: ast.SelectStatement) -> bool:
        # UNION rows mix arms with different predicates; re-applying the
        # left arm's WHERE to every cited row would be wrong.
        return (
            statement.from_table is not None
            and not statement.joins
            and statement.union is None
        )

    @staticmethod
    def _single_aggregate(statement: ast.SelectStatement) -> ast.AggregateCall | None:
        aggregates = []
        for item in statement.items:
            aggregates.extend(ast.collect_aggregates(item.expression))
        if len(aggregates) == 1 and len(statement.items) == 1:
            return aggregates[0]
        return None

    @staticmethod
    def _check_filter_on_lineage(
        result: QueryResult, statement: ast.SelectStatement, cited: "_CitedRows"
    ) -> list[str]:
        if statement.where is None:
            return []
        values, errors = cited.evaluate(statement.where)
        if not errors and all(value is True for value in values.values()):
            return []
        issues: list[str] = []
        for row_lineage in result.lineage:
            for table_name, row_id in row_lineage:
                if table_name in cited.foreign:
                    continue
                error = errors.get(row_id)
                if error is not None:
                    issues.append(
                        f"cannot re-check filter on {table_name}[{row_id}]: {error}"
                    )
                elif values[row_id] is not True:
                    issues.append(
                        f"cited row {table_name}[{row_id}] does not satisfy "
                        "the query's WHERE clause"
                    )
        return issues

    @staticmethod
    def _recompute_aggregate(
        result: QueryResult, aggregate: ast.AggregateCall, cited: "_CitedRows"
    ) -> list[str]:
        if len(result.rows) != 1 or len(result.rows[0]) != 1:
            return []
        reported = result.rows[0][0]
        accumulator = _aggregator(aggregate)
        if isinstance(aggregate.argument, ast.Star):
            # COUNT(*) counts cited rows; the existence pass reports gone ones.
            values, errors = None, {}
        else:
            values, errors = cited.evaluate(aggregate.argument)
        # Sorted row-id order keeps float SUM/AVG bit-identical run to run.
        failure = _accumulate(accumulator, cited.sorted_atoms(), cited, values, errors)
        if failure is not None:
            table_name, row_id, error = failure
            return [f"cannot recompute aggregate on {table_name}[{row_id}]: {error}"]
        recomputed = accumulator.finalize()
        if not _values_close(recomputed, reported):
            return [
                f"aggregate recomputed from cited rows is {recomputed!r}, "
                f"but the answer reports {reported!r}"
            ]
        return []


@dataclass
class RowVerdict:
    """Per-row verification outcome (part-scored answers)."""

    row_index: int
    verified: bool
    detail: str = ""


def verify_rows(
    database: Database, result: QueryResult
) -> list[RowVerdict] | None:
    """Re-derive each output row of a grouped aggregate from its lineage.

    The paper allows "a confidence score for the entire answer or for
    parts of the answer with differing scores"; this is the machinery for
    the per-part case: for a single-table ``GROUP BY`` with one
    aggregate, every output row's aggregate is recomputed from exactly
    the base rows its lineage cites.  A row citing a gone row, or a row
    of any table but the queried one, is not verified.

    Returns None when the statement shape is not row-verifiable
    (joins, unions, multiple aggregates, no grouping).
    """
    statement = result.statement
    if statement is None or statement.from_table is None:
        return None
    if statement.joins or statement.union is not None or not statement.group_by:
        return None
    aggregates = []
    for item in statement.items:
        aggregates.extend(ast.collect_aggregates(item.expression))
    if len(aggregates) != 1:
        return None
    aggregate = aggregates[0]
    # Locate the aggregate's output column.
    agg_position = None
    for position, item in enumerate(statement.items):
        if ast.collect_aggregates(item.expression) and item.expression == aggregate:
            agg_position = position
    if agg_position is None:
        return None
    cited = _CitedRows(database.catalog, result.lineage, statement)
    if isinstance(aggregate.argument, ast.Star):
        values, errors = None, cited.missing_from_queried()
    else:
        values, errors = cited.evaluate(aggregate.argument)
    verdicts: list[RowVerdict] = []
    for row_index, (row, lineage) in enumerate(zip(result.rows, result.lineage)):
        accumulator = _aggregator(aggregate)
        failure = _accumulate(accumulator, sorted(lineage), cited, values, errors)
        if failure is not None:
            verdicts.append(
                RowVerdict(row_index, False, f"cannot re-derive: {failure[2]}")
            )
            continue
        recomputed = accumulator.finalize()
        reported = row[agg_position]
        if _values_close(recomputed, reported):
            verdicts.append(RowVerdict(row_index, True))
        else:
            verdicts.append(
                RowVerdict(
                    row_index,
                    False,
                    f"cited rows give {recomputed!r}, answer says {reported!r}",
                )
            )
    return verdicts


class _CitedRows:
    """One answer's lineage, grouped by table and looked up once per table.

    With a single-table ``statement``, the cited rows of its FROM table
    (the *queried* table) are fetched once, keyed by row id, and every
    compiled expression runs once per distinct cited row.
    An atom naming any other table is *foreign*: the query never read
    that table, so its rows cannot support the answer.  Without a
    statement (joins, unions) only existence is checked.  Either way
    existence costs one set difference per cited table.
    """

    def __init__(
        self,
        catalog: Catalog,
        lineage: list[Lineage],
        statement: ast.SelectStatement | None,
    ):
        self._catalog = catalog
        self._statement = statement
        #: Uncorrelated subqueries run once per verification, however
        #: many expressions mention them.
        self._subquery_cache: dict[str, list[tuple]] = {}
        self._queried = queried = (
            None if statement is None else catalog.table(statement.from_table.name)
        )
        #: Cited table names that are not the queried table.
        self.foreign: set[str] = set()
        #: Lower-cased table name -> {cited id with no row: the fetch error}.
        self._missing: dict[str, dict[int, Exception]] = {}
        self._rows: dict[int, tuple[SQLValue, ...]] = {}
        self._by_table = _group_by_table(frozenset().union(*lineage))
        self._row_ids: set[int] = set()  # cited ids of the queried table
        for table_name, row_ids in self._by_table.items():
            if queried is None:
                try:
                    table = catalog.table(table_name)
                except CatalogError as exc:
                    self._missing[table_name.lower()] = dict.fromkeys(row_ids, exc)
                    continue
                self._note_missing(table, table.missing_row_ids(row_ids))
            elif table_name.lower() == queried.name.lower():
                self._row_ids |= row_ids
            else:
                self.foreign.add(table_name)
        if queried is not None:
            self._rows = queried.rows_by_id(self._row_ids)
            if len(self._rows) < len(self._row_ids):
                self._note_missing(queried, self._row_ids - self._rows.keys())

    def _note_missing(self, table: Table, row_ids: set[int]) -> None:
        for row_id in row_ids:
            try:
                table.get_row(row_id)
            except CatalogError as exc:
                self._missing.setdefault(table.name.lower(), {})[row_id] = exc

    def _run_subquery(self, subquery: ast.SelectStatement) -> list[tuple]:
        return SelectExecutor(self._catalog, capture_lineage=False).execute(subquery).rows

    def foreign_error(self, table_name: str, row_id: int) -> SoundnessError:
        """Why a cited row of another table cannot support the answer."""
        return SoundnessError(
            f"cited row {table_name}[{row_id}] is not from the queried table "
            f"{self._queried.name}"
        )

    def missing_from_queried(self) -> dict[int, Exception]:
        """Cited ids of the queried table with no row, with their fetch errors."""
        return self._missing.get(self._queried.name.lower(), {})

    def existence_issues(self, lineage: list[Lineage]) -> list[str]:
        """One issue per foreign or gone atom, in lineage order."""
        if not self.foreign and not self._missing:
            return []
        issues: list[str] = []
        for row_lineage in lineage:
            for table_name, row_id in row_lineage:
                if table_name in self.foreign:
                    issues.append(str(self.foreign_error(table_name, row_id)))
                    continue
                error = self._missing.get(table_name.lower(), {}).get(row_id)
                if error is not None:
                    issues.append(f"cited row {table_name}[{row_id}] is gone: {error}")
        return issues

    def sorted_atoms(self) -> Iterator[tuple[str, int]]:
        """The distinct cited atoms that are not foreign, in sorted order."""
        for table_name in sorted(self._by_table):
            if table_name not in self.foreign:
                yield from zip(repeat(table_name), sorted(self._by_table[table_name]))

    def evaluate(
        self, expression: ast.Expression
    ) -> tuple[dict[int, SQLValue], dict[int, Exception]]:
        """``expression`` on each distinct cited row of the queried table.

        Returns ``(values, errors)`` keyed by row id: every cited id lands
        in exactly one.  The expression is compiled once over the table's
        columns bound under the query's FROM alias; uncorrelated
        subqueries run on a lineage-free executor, at most once each.
        """
        if not self._row_ids:
            return {}, {}
        binding = self._statement.from_table.binding
        layout = RowLayout(
            [BoundColumn(binding, column.name) for column in self._queried.schema]
        )
        # Compiling never raises: query errors surface on the first row.
        fn = compile_expression(
            expression,
            layout,
            subquery_runner=self._run_subquery,
            subquery_cache=self._subquery_cache,
        )
        values: dict[int, SQLValue] = {}
        errors = dict(self.missing_from_queried())
        for row_id, row in self._rows.items():
            try:
                values[row_id] = fn(row)
            except Exception as exc:  # noqa: BLE001
                errors[row_id] = exc
        return values, errors


def _group_by_table(atoms: frozenset[tuple[str, int]]) -> dict[str, set[int]]:
    """``{table_name: {row_id, ...}}`` over a set of lineage atoms."""
    table_names = {table_name for table_name, _row_id in atoms}
    if len(table_names) == 1:
        return {table_names.pop(): {row_id for _table_name, row_id in atoms}}
    grouped: dict[str, set[int]] = {table_name: set() for table_name in table_names}
    for table_name, row_id in atoms:
        grouped[table_name].add(row_id)
    return grouped


def _aggregator(aggregate: ast.AggregateCall) -> Aggregator:
    return make_aggregator(
        aggregate.name,
        star=isinstance(aggregate.argument, ast.Star),
        distinct=aggregate.distinct,
    )


def _accumulate(
    accumulator: Aggregator,
    atoms: Iterable[tuple[str, int]],
    cited: _CitedRows,
    values: dict[int, SQLValue] | None,
    errors: dict[int, Exception],
) -> tuple[str, int, Exception] | None:
    """Step ``accumulator`` over ``atoms`` in order (``values`` None: COUNT(*)).

    Returns the first atom that cannot be stepped, with its error, or None.
    """
    step = accumulator.step
    foreign = cited.foreign
    for table_name, row_id in atoms:
        if table_name in foreign:
            return table_name, row_id, cited.foreign_error(table_name, row_id)
        if row_id in errors:
            return table_name, row_id, errors[row_id]
        try:
            step(1 if values is None else values[row_id])
        except Exception as exc:  # noqa: BLE001 - e.g. SUM over text
            return table_name, row_id, exc
    return None


def _same_row_multiset(a: list[tuple], b: list[tuple]) -> bool:
    """Whether ``a`` and ``b`` hold the same rows, compared by ``repr``.

    ``repr`` keeps ``1`` and ``1.0`` apart.  A cache-served replay shares
    its row tuples with the answer it produced, and the same immutable
    tuple has the same ``repr``, so identical lists skip the formatting.
    """
    if len(a) == len(b) and all(map(is_, a, b)):
        return True
    return Counter(map(repr, a)) == Counter(map(repr, b))


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    return a == b
