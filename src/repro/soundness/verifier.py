"""Answer verification at increasing depth.

"To achieve soundness, the system should be able to verify how answers
are generated via explainability and provenance" (Section 2.1).  The
verifier offers three depths — benchmark E4's ablation axis:

* ``"static"`` — the recorded SQL text denotes the executed statement,
  which type-checks against the catalog (catches schema hallucinations
  and swapped text, not wrong logic); only non-canonical text is parsed;
* ``"reexecution"`` — execute the recorded statement again and compare the
  answer with what the database returns.  With the query cache on, the
  replay is the very result the cache computed while the read tables are
  unchanged, and a re-computed one after a change.  Results are
  immutable, so a tampered answer is another object, and it fails like a
  stale one.  Rows are compared as multisets of their ``repr`` (``1`` and
  ``1.0`` differ);
* ``"provenance"`` — re-derive the answer from its *cited source rows*,
  set-at-a-time: one ``_CitedRows`` per verification reads the answer's
  lineage index (``QueryResult.lineage_index``, built once per result),
  existence is one set difference per table, and for single-table
  statements the WHERE clause and the aggregate argument are compiled
  once and evaluated column at a time over the distinct cited rows'
  positions in the table's column memo; single-table aggregates are
  recomputed from the lineage alone, one fold over the cited values in
  sorted atom order.  Cited rows must come
  from the queried table: a row of any other table is an issue.
  A fabricated answer cannot survive this: its provenance either does not
  exist or does not reproduce it.  A report that passes carries the row
  verdicts of :func:`verify_rows`, built from that same ``_CitedRows``.
  This depth runs once per cache entry: when re-execution gets the
  answer object itself back from the cache, which has just checked every
  table the query reads, the report kept on that result is reused.  The
  row verdicts of a ``"reexecution"``-depth pass are kept and reused
  under the same rule.  A
  tampered copy, a stale answer, another spelling of the SQL or a
  cache-less database always gets the full check.

Reports are frozen, so one report can be shared by every turn that is
served the same cached answer; the static check and the counters,
events and span stay per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from operator import is_, itemgetter
from typing import Iterator

from repro.errors import CatalogError, SoundnessError
from repro.nl.constrained import SQLValidator
from repro.obs.events import emit
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.sqldb import ast
from repro.sqldb.aggregates import Aggregator, make_aggregator, make_fold
from repro.sqldb.catalog import Catalog
from repro.sqldb.compile import compile_batch, compile_expression
from repro.sqldb.database import Database, LineageIndex, QueryResult
from repro.sqldb.executor import Lineage, SelectExecutor
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.parser import parse_sql
from repro.sqldb.table import Table
from repro.sqldb.types import SQLValue

DEPTHS = ("static", "reexecution", "provenance")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying one answer; an answer that passes carries its
    row verdicts when its statement is row-verifiable (see :func:`verify_rows`)."""

    depth: str
    passed: bool
    checks_run: tuple[str, ...] = ()
    issues: tuple[str, ...] = ()
    row_verdicts: tuple["RowVerdict", ...] | None = None

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        """Combine two reports (used when stacking depths)."""
        return VerificationReport(
            depth=other.depth,
            passed=self.passed and other.passed,
            checks_run=self.checks_run + other.checks_run,
            issues=self.issues + other.issues,
            row_verdicts=other.row_verdicts,
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
            if report.passed and report.row_verdicts is None:
                report = replace(
                    report, row_verdicts=_row_verdicts(result, self.database.catalog)
                )
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
        reexecution, replay = self._verify_reexecution(result)
        report = report.merge(reexecution)
        if depth == "reexecution" or not report.passed:
            if report.passed and replay is result:  # the rule of the memo below
                if result.row_verdicts is None:
                    verdicts = _row_verdicts(result, self.database.catalog)
                    object.__setattr__(result, "row_verdicts", verdicts)
                report = replace(report, row_verdicts=result.row_verdicts)
            return report
        if replay is not result:
            return report.merge(self._verify_provenance(result))
        # The cache just handed back this very answer, so every table it
        # reads is the table, at the version, that the memo was derived at.
        if result.provenance_report is None:
            object.__setattr__(result, "provenance_report", self._verify_provenance(result))
        return report.merge(result.provenance_report)

    # -- depth 1: static -------------------------------------------------------------

    def _verify_static(self, result: QueryResult) -> VerificationReport:
        statement = result.statement
        if statement is None:
            issues = ("no SELECT statement was executed",)
        elif result.sql != statement.to_sql() and not _denotes(result.sql, statement):
            issues = ("the recorded SQL is not the statement that was executed",)
        else:
            issues = tuple(self._validator.check(statement, result.sql).problems)
        return VerificationReport(
            depth="static",
            passed=not issues,
            checks_run=("sql parses and type-checks against the catalog",),
            issues=issues,
        )

    # -- depth 2: re-execution ----------------------------------------------------------

    def _verify_reexecution(
        self, result: QueryResult
    ) -> tuple[VerificationReport, QueryResult | None]:
        """The report and the replay (None when re-execution raised)."""
        issues: list[str] = []
        try:
            replay = self.database.execute_select(result.statement, sql=result.sql)
        except Exception as exc:  # noqa: BLE001
            return VerificationReport(
                depth="reexecution",
                passed=False,
                checks_run=("re-execute recorded SQL",),
                issues=(f"re-execution failed: {exc}",),
            ), None
        if replay.columns != result.columns:
            issues.append("re-execution produced different columns")
        if not _same_row_multiset(replay.rows, result.rows):
            issues.append("re-execution produced different rows")
        return VerificationReport(
            depth="reexecution",
            passed=not issues,
            checks_run=("re-execute recorded SQL and compare results",),
            issues=tuple(issues),
        ), replay

    # -- depth 3: provenance re-derivation --------------------------------------------------

    def _verify_provenance(self, result: QueryResult) -> VerificationReport:
        checks = ["fetch every cited source row"]
        if not result.lineage and result.rows:
            return VerificationReport(
                depth="provenance",
                passed=False,
                checks_run=tuple(checks),
                issues=("answer has rows but no lineage was captured",),
            )
        statement = result.statement
        simple = statement is not None and self._is_simple_single_table(statement)
        cited = _CitedRows(
            self.database.catalog, result.lineage_index, statement if simple else None
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
            checks_run=tuple(checks),
            issues=tuple(issues),
            row_verdicts=(
                None if issues else _row_verdicts(result, self.database.catalog, cited)
            ),
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
        aggregate = _only_aggregate(statement)
        return aggregate if len(statement.items) == 1 else None

    @staticmethod
    def _check_filter_on_lineage(
        result: QueryResult, statement: ast.SelectStatement, cited: "_CitedRows"
    ) -> list[str]:
        if statement.where is None:
            return []
        values, errors = cited.evaluate(statement.where)
        if not errors and all(map(is_, repeat(True), values.values())):
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
        if isinstance(aggregate.argument, ast.Star):
            # COUNT(*) counts cited rows; the existence pass reports gone ones.
            values, errors = None, {}
        else:
            values, errors = cited.evaluate(aggregate.argument)
        recomputed, failure = _rederive(aggregate, _fold(aggregate), None, cited, values, errors)
        if failure is not None:
            table_name, row_id, error = failure
            return [f"cannot recompute aggregate on {table_name}[{row_id}]: {error}"]
        if not _values_close(recomputed, reported):
            return [
                f"aggregate recomputed from cited rows is {recomputed!r}, "
                f"but the answer reports {reported!r}"
            ]
        return []


@dataclass(frozen=True)
class RowVerdict:
    """Per-row verification outcome (part-scored answers)."""

    row_index: int
    verified: bool
    detail: str = ""


def verify_rows(
    database: Database, result: QueryResult
) -> tuple[RowVerdict, ...] | None:
    """Re-derive each output row of a grouped aggregate from its lineage.

    The paper allows "a confidence score for the entire answer or for
    parts of the answer with differing scores"; this is the machinery for
    the per-part case: for a single-table ``GROUP BY`` with one
    aggregate, every output row's aggregate is recomputed from exactly
    the base rows its lineage cites.  A row citing a gone row, or a row
    of any table but the queried one, is not verified.

    Returns None when the statement shape is not row-verifiable
    (joins, unions, multiple aggregates, no grouping).  A wrapper:
    :meth:`AnswerVerifier.verify` puts the same verdicts in the report of
    an answer that passes, without a second pass over the lineage.
    """
    return _row_verdicts(result, database.catalog)


def _row_verdicts(
    result: QueryResult, catalog: Catalog, cited: "_CitedRows | None" = None
) -> tuple[RowVerdict, ...] | None:
    """:func:`verify_rows`, reusing ``cited`` when the caller has built it."""
    statement = result.statement
    if (
        statement is None
        or not statement.group_by
        or not AnswerVerifier._is_simple_single_table(statement)
        or (aggregate := _only_aggregate(statement)) is None
    ):
        return None
    # The aggregate's output column: an item that is the aggregate itself.
    expressions = [item.expression for item in statement.items]
    if aggregate not in expressions:
        return None
    agg_position = expressions.index(aggregate)
    if cited is None:
        cited = _CitedRows(catalog, result.lineage_index, statement)
    if isinstance(aggregate.argument, ast.Star):
        values, errors = None, cited.missing_from_queried()
    else:
        values, errors = cited.evaluate(aggregate.argument)
    fold = _fold(aggregate)
    verdicts: list[RowVerdict] = []
    for row_index, (row, lineage) in enumerate(zip(result.rows, result.lineage)):
        recomputed, failure = _rederive(aggregate, fold, lineage, cited, values, errors)
        if failure is not None:
            detail = f"cannot re-derive: {failure[2]}"
        else:
            reported = row[agg_position]
            close = _values_close(recomputed, reported)
            detail = "" if close else f"cited rows give {recomputed!r}, answer says {reported!r}"
        verdicts.append(RowVerdict(row_index, not detail, detail))
    return tuple(verdicts)


class _CitedRows:
    """One answer's lineage index, looked up once per cited table.

    With a single-table ``statement``, the cited rows of its FROM table
    (the *queried* table) are looked up once as positions into its column
    memo, and every compiled expression runs once over those positions.
    An atom naming any other table is *foreign*: the query never read
    that table, so its rows cannot support the answer.  Without a
    statement (joins, unions) only existence is checked.  Either way
    existence costs one set difference per cited table.
    """

    def __init__(
        self,
        catalog: Catalog,
        lineage: LineageIndex,
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
        self._lineage = lineage
        #: Cited ids of the queried table.
        self.row_ids: set[int] = set()
        for table_name, row_ids in lineage.by_table.items():
            if queried is None:
                try:
                    table = catalog.table(table_name)
                except CatalogError as exc:
                    self._missing[table_name.lower()] = dict.fromkeys(row_ids, exc)
                    continue
                self._note_missing(table, table.missing_row_ids(row_ids))
            elif table_name.lower() == queried.name.lower():
                self.row_ids |= row_ids
            else:
                self.foreign.add(table_name)
        if queried is not None:
            self._memo = memo = queried.column_memo()
            present = self.row_ids & memo.position.keys()
            #: Cited ids of the queried table with a row, and their positions.
            self._ids = list(present)
            self._positions = list(map(memo.position.__getitem__, self._ids))
            if len(present) < len(self.row_ids):
                self._note_missing(queried, self.row_ids - present)

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

    def existence_issues(self, lineage: tuple[Lineage, ...]) -> list[str]:
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

    def foldable(self, errors: dict[int, Exception]) -> bool:
        """Whether every cited atom names the queried table, spelled one way,
        and no cited row has an error (atoms then sort as their row ids)."""
        return not errors and not self.foreign and len(self._lineage.tables) == 1

    def sorted_atoms(self) -> Iterator[tuple[str, int]]:
        """The distinct cited atoms that are not foreign, in sorted order."""
        for table_name in self._lineage.tables:
            if table_name not in self.foreign:
                yield from zip(repeat(table_name), self._lineage.sorted_ids(table_name))

    def evaluate(
        self, expression: ast.Expression
    ) -> tuple[dict[int, SQLValue], dict[int, Exception]]:
        """``expression`` on each distinct cited row of the queried table.

        Returns ``(values, errors)`` keyed by row id: every cited id lands
        in exactly one.  The expression is compiled once over the table's
        columns bound under the query's FROM alias and runs as one batch
        over the cited positions; if that raises, row by row, so each row
        keeps its own error.  Uncorrelated subqueries run on a
        lineage-free executor, at most once each.
        """
        if not self.row_ids:
            return {}, {}
        binding = self._statement.from_table.binding
        layout = RowLayout(
            [BoundColumn(binding, column.name) for column in self._queried.schema]
        )
        # Compiling never raises: query errors surface on the first row.
        compiled = dict(subquery_runner=self._run_subquery, subquery_cache=self._subquery_cache)
        errors = dict(self.missing_from_queried())
        try:
            batch = compile_batch(expression, layout, self._memo, **compiled)
            return dict(zip(self._ids, batch(self._positions))), errors
        except Exception:  # noqa: BLE001 - some row raises: find each one's error
            pass
        fn = compile_expression(expression, layout, **compiled)
        values: dict[int, SQLValue] = {}
        for row_id, position in zip(self._ids, self._positions):
            try:
                values[row_id] = fn(self._memo.rows[position])
            except Exception as exc:  # noqa: BLE001
                errors[row_id] = exc
        return values, errors


def _only_aggregate(statement: ast.SelectStatement) -> ast.AggregateCall | None:
    """The select list's aggregate call, if it has exactly one."""
    aggregates = [
        call for item in statement.items for call in ast.collect_aggregates(item.expression)
    ]
    return aggregates[0] if len(aggregates) == 1 else None


def _aggregator(aggregate: ast.AggregateCall) -> Aggregator:
    return make_aggregator(
        aggregate.name,
        star=isinstance(aggregate.argument, ast.Star),
        distinct=aggregate.distinct,
    )


def _fold(aggregate: ast.AggregateCall):
    return make_fold(aggregate.name, isinstance(aggregate.argument, ast.Star), aggregate.distinct)


def _rederive(
    aggregate: ast.AggregateCall,
    fold,
    atoms: Lineage | None,
    cited: _CitedRows,
    values: dict[int, SQLValue] | None,
    errors: dict[int, Exception],
) -> tuple[SQLValue, tuple[str, int, Exception] | None]:
    """``(value, None)`` of ``aggregate`` over ``atoms`` (None: all cited
    atoms but foreign ones; ``values`` None: COUNT(*)) in sorted order, which
    keeps float SUM/AVG bit-identical; or ``(None, (table, row_id, error))``
    naming the first atom that cannot be stepped.  The atoms are stepped one
    by one only when the single ``fold`` cannot run or raises."""
    if cited.foldable(errors):
        ids = sorted(cited.row_ids if atoms is None else map(itemgetter(1), atoms))
        try:
            return fold(ids if values is None else list(map(values.__getitem__, ids))), None
        except Exception:  # noqa: BLE001 - stepping below names the atom
            pass
    accumulator = _aggregator(aggregate)
    foreign = cited.foreign
    for table_name, row_id in cited.sorted_atoms() if atoms is None else sorted(atoms):
        if table_name in foreign:
            return None, (table_name, row_id, cited.foreign_error(table_name, row_id))
        if row_id in errors:
            return None, (table_name, row_id, errors[row_id])
        try:
            accumulator.step(1 if values is None else values[row_id])
        except Exception as exc:  # noqa: BLE001 - e.g. SUM over text
            return None, (table_name, row_id, exc)
    return accumulator.finalize(), None


def _denotes(sql: str, statement: ast.SelectStatement) -> bool:
    """Whether non-canonical ``sql`` (an LLM's own spelling) parses to ``statement``."""
    try:
        return parse_sql(sql) == statement
    except Exception:  # noqa: BLE001 - text that does not parse denotes nothing
        return False


def _same_row_multiset(a: tuple[tuple, ...], b: tuple[tuple, ...]) -> bool:
    """Whether ``a`` and ``b`` hold the same rows, compared by ``repr``.

    ``repr`` keeps ``1`` and ``1.0`` apart.  A cache-served replay of an
    untampered answer hands back the answer's own rows tuple, which skips
    the formatting.
    """
    return a is b or Counter(map(repr, a)) == Counter(map(repr, b))


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    return a == b
