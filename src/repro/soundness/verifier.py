"""Answer verification at increasing depth.

"To achieve soundness, the system should be able to verify how answers
are generated via explainability and provenance" (Section 2.1).  The
verifier offers three depths — benchmark E4's ablation axis:

* ``"static"`` — the SQL parses and type-checks against the catalog
  (catches syntax errors and schema hallucinations, not wrong logic);
* ``"reexecution"`` — run the query again and compare results (catches
  non-determinism and stale answers);
* ``"provenance"`` — re-derive the answer from its *cited source rows*:
  fetch every lineage row, re-apply the query's filter to each, and for
  single-table aggregates recompute the aggregate from the lineage alone.
  A fabricated answer cannot survive this: its provenance either does not
  exist or does not reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SoundnessError
from repro.nl.constrained import SQLValidator
from repro.obs.events import emit
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.sqldb import ast
from repro.sqldb.compile import CompiledExpression, compile_expression
from repro.sqldb.database import Database, QueryResult
from repro.sqldb.executor import SelectExecutor
from repro.sqldb.expressions import BoundColumn, RowLayout

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
        if sorted(map(repr, replay.rows)) != sorted(map(repr, result.rows)):
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
        issues: list[str] = []
        if not result.lineage and result.rows:
            return VerificationReport(
                depth="provenance",
                passed=False,
                checks_run=checks,
                issues=["answer has rows but no lineage was captured"],
            )
        for row_lineage in result.lineage:
            for table_name, row_id in row_lineage:
                try:
                    self.database.fetch_source_row(table_name, row_id)
                except Exception as exc:  # noqa: BLE001
                    issues.append(
                        f"cited row {table_name}[{row_id}] is gone: {exc}"
                    )
        statement = result.statement
        if statement is not None and self._is_simple_single_table(statement):
            checks.append("re-apply WHERE to cited rows")
            issues.extend(self._check_filter_on_lineage(result, statement))
            aggregate = self._single_aggregate(statement)
            if aggregate is not None and not statement.group_by:
                checks.append("recompute aggregate from cited rows alone")
                issues.extend(
                    self._recompute_aggregate(result, statement, aggregate)
                )
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

    def _check_filter_on_lineage(
        self, result: QueryResult, statement: ast.SelectStatement
    ) -> list[str]:
        if statement.where is None:
            return []
        evaluate = _cited_row_evaluator(self.database, statement, statement.where)
        issues: list[str] = []
        for row_lineage in result.lineage:
            for table_name, row_id in row_lineage:
                try:
                    verdict = evaluate(table_name, row_id)
                except Exception as exc:  # noqa: BLE001
                    issues.append(
                        f"cannot re-check filter on {table_name}[{row_id}]: {exc}"
                    )
                    continue
                if verdict is not True:
                    issues.append(
                        f"cited row {table_name}[{row_id}] does not satisfy "
                        "the query's WHERE clause"
                    )
        return issues

    def _recompute_aggregate(
        self,
        result: QueryResult,
        statement: ast.SelectStatement,
        aggregate: ast.AggregateCall,
    ) -> list[str]:
        from repro.sqldb.aggregates import make_aggregator

        if len(result.rows) != 1 or len(result.rows[0]) != 1:
            return []
        reported = result.rows[0][0]
        accumulator = make_aggregator(
            aggregate.name,
            star=isinstance(aggregate.argument, ast.Star),
            distinct=aggregate.distinct,
        )
        evaluate = _cited_row_evaluator(self.database, statement, aggregate.argument)
        source_rows = result.all_source_rows()
        for table_name, row_id in sorted(source_rows):
            if isinstance(aggregate.argument, ast.Star):
                accumulator.step(1)
                continue
            try:
                accumulator.step(evaluate(table_name, row_id))
            except Exception as exc:  # noqa: BLE001
                return [f"cannot recompute aggregate on {table_name}[{row_id}]: {exc}"]
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
    the base rows its lineage cites.

    Returns None when the statement shape is not row-verifiable
    (joins, unions, multiple aggregates, no grouping).
    """
    from repro.sqldb.aggregates import make_aggregator

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
    table = database.catalog.table(statement.from_table.name)
    evaluate = _cited_row_evaluator(database, statement, aggregate.argument)
    verdicts: list[RowVerdict] = []
    for row_index, (row, lineage) in enumerate(zip(result.rows, result.lineage)):
        accumulator = make_aggregator(
            aggregate.name,
            star=isinstance(aggregate.argument, ast.Star),
            distinct=aggregate.distinct,
        )
        try:
            for _table_name, row_id in sorted(lineage):
                if isinstance(aggregate.argument, ast.Star):
                    table.get_row(row_id)  # a cited row must still exist
                    accumulator.step(1)
                else:
                    accumulator.step(evaluate(table.name, row_id))
        except Exception as exc:  # noqa: BLE001 - unverifiable row
            verdicts.append(
                RowVerdict(row_index, False, f"cannot re-derive: {exc}")
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


def _cited_row_evaluator(
    database: Database, statement: ast.SelectStatement, expression: ast.Expression
):
    """``evaluate(table_name, row_id)``: ``expression`` over one cited row.

    The expression is compiled once per cited table, over that table's
    columns bound under the query's FROM alias, so a verification pays
    for compilation once rather than once per row.  Uncorrelated
    subqueries run on a lineage-free executor, at most once each.
    """
    catalog = database.catalog
    binding = statement.from_table.binding
    subquery_cache: dict[str, list[tuple]] = {}
    compiled: dict[str, CompiledExpression] = {}

    def run_subquery(subquery: ast.SelectStatement) -> list[tuple]:
        return SelectExecutor(catalog, capture_lineage=False).execute(subquery).rows

    def evaluate(table_name: str, row_id: int):
        table = catalog.table(table_name)
        fn = compiled.get(table.name)
        if fn is None:
            layout = RowLayout(
                [BoundColumn(binding, column.name) for column in table.schema]
            )
            fn = compiled[table.name] = compile_expression(
                expression,
                layout,
                subquery_runner=run_subquery,
                subquery_cache=subquery_cache,
            )
        return fn(table.get_row(row_id))

    return evaluate


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    return a == b
