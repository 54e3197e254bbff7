"""Grammar-constrained decoding and rejection sampling over SQL candidates.

Section 3.2 (Soundness): "Structured outputs can also be obtained through
a combination of rejection sampling, constrained decoding and parsing."
:class:`SQLValidator` is the constraint: a candidate must parse *and*
type-check against the live catalog (tables exist, every column resolves,
grouping is legal).  It checks parsed statements (the verifier's static
depth: the one that was executed); text is parsed once, where it enters.
:class:`ConstrainedDecoder` applies it to a sample stream — either
filtering a fixed candidate list or driving rejection sampling against a
generator — and reports how many candidates it burned, which is the
efficiency cost P4 pays and E7 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConstrainedDecodingError
from repro.nl.llmsim import LLMOutput, SimulatedLLM
from repro.sqldb import ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.parser import parse_sql


@dataclass
class ValidationReport:
    """Outcome of statically validating one SQL candidate."""

    sql: str
    valid: bool
    problems: list[str] = field(default_factory=list)


class SQLValidator:
    """Static validation of SQL against a catalog (no execution)."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def validate(self, sql: str) -> ValidationReport:
        """Parse ``sql``, then :meth:`check` the statement."""
        try:
            statement = parse_sql(sql)
        except Exception as exc:  # noqa: BLE001 - every parse failure is a problem
            return ValidationReport(sql=sql, valid=False, problems=[f"parse: {exc}"])
        return self.check(statement, sql)

    def check_output(self, output: LLMOutput) -> ValidationReport:
        """:meth:`check` a generation's statement (parsed once per output)."""
        try:
            statement = output.statement
        except Exception as exc:  # noqa: BLE001 - every parse failure is a problem
            return ValidationReport(output.sql, valid=False, problems=[f"parse: {exc}"])
        return self.check(statement, output.sql)

    def check(self, statement: ast.Statement, sql: str) -> ValidationReport:
        """Schema-check a parsed statement; ``sql`` is its text, for the report."""
        problems: list[str] = []
        if not isinstance(statement, ast.SelectStatement):
            problems.append("only SELECT is allowed here")
        else:
            self._validate_statement(statement, problems)
        return ValidationReport(sql=sql, valid=not problems, problems=problems)

    def _validate_statement(
        self, statement: ast.SelectStatement, problems: list[str]
    ) -> None:
        visible = self._visible_columns(statement, problems)
        if not problems:
            self._check_expressions(statement, visible, problems)
        if statement.union is not None:
            _keep, right = statement.union
            before = len(problems)
            self._validate_statement(right, problems)
            if before == len(problems) and len(right.items) != len(statement.items):
                # Arity check only when star expansion is not involved.
                has_star = any(
                    isinstance(item.expression, ast.Star)
                    for item in statement.items + right.items
                )
                if not has_star:
                    problems.append("UNION arms select different column counts")

    # -- scope construction -----------------------------------------------------------

    def _visible_columns(
        self, statement: ast.SelectStatement, problems: list[str]
    ) -> dict[str, set[str]]:
        """binding -> column names visible in the statement's scope."""
        visible: dict[str, set[str]] = {}
        table_refs: list[ast.TableRef] = []
        if statement.from_table is not None:
            table_refs.append(statement.from_table)
        table_refs.extend(join.table for join in statement.joins)
        for ref in table_refs:
            if ref.name not in self.catalog:
                problems.append(f"unknown table {ref.name!r}")
                continue
            table = self.catalog.table(ref.name)
            binding = ref.binding.lower()
            if binding in visible:
                problems.append(f"duplicate table binding {ref.binding!r}")
                continue
            visible[binding] = {name.lower() for name in table.column_names}
        return visible

    # -- expression checks --------------------------------------------------------------

    def _check_expressions(
        self,
        statement: ast.SelectStatement,
        visible: dict[str, set[str]],
        problems: list[str],
    ) -> None:
        expressions: list[ast.Expression] = [
            item.expression for item in statement.items
        ]
        if statement.where is not None:
            expressions.append(statement.where)
        expressions.extend(statement.group_by)
        if statement.having is not None:
            expressions.append(statement.having)
        output_names = {
            item.output_name(position).lower()
            for position, item in enumerate(statement.items)
        }
        for expression in expressions:
            self._check_refs(expression, visible, problems, set())
        for order_item in statement.order_by:
            self._check_refs(
                order_item.expression, visible, problems, output_names
            )
        if statement.where is not None and ast.contains_aggregate(statement.where):
            problems.append("aggregate in WHERE clause")

    def _check_refs(
        self,
        expression: ast.Expression,
        visible: dict[str, set[str]],
        problems: list[str],
        extra_names: set[str],
    ) -> None:
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
                # A subquery is its own scope: validate it independently.
                self._validate_statement(node.statement, problems)
                continue
            if not isinstance(node, ast.ColumnRef):
                continue
            name = node.name.lower()
            if node.table is not None:
                binding = node.table.lower()
                if binding not in visible:
                    problems.append(f"unknown table binding {node.table!r}")
                elif name not in visible[binding]:
                    problems.append(f"unknown column {node.table}.{node.name}")
                continue
            holders = [b for b, columns in visible.items() if name in columns]
            if len(holders) == 0 and name not in extra_names:
                problems.append(f"unknown column {node.name!r}")
            elif len(holders) > 1:
                problems.append(f"ambiguous column {node.name!r}")


@dataclass
class DecodeResult:
    """What constrained decoding settled on."""

    output: LLMOutput
    attempts: int
    rejected: list[ValidationReport] = field(default_factory=list)


class ConstrainedDecoder:
    """Filters/drives a candidate stream through :class:`SQLValidator`."""

    def __init__(self, validator: SQLValidator):
        self.validator = validator

    def filter(self, candidates: list[LLMOutput]) -> list[LLMOutput]:
        """Every valid candidate, in order; each distinct text is checked once."""
        valid: dict[str, bool] = {}
        for candidate in candidates:
            if candidate.sql not in valid:
                valid[candidate.sql] = self.validator.check_output(candidate).valid
        return [candidate for candidate in candidates if valid[candidate.sql]]

    def decode(self, candidates: list[LLMOutput]) -> DecodeResult:
        """First valid candidate from a fixed list (raises if none)."""
        rejected: list[ValidationReport] = []
        for position, candidate in enumerate(candidates, start=1):
            report = self.validator.check_output(candidate)
            if report.valid:
                return DecodeResult(
                    output=candidate, attempts=position, rejected=rejected
                )
            rejected.append(report)
        raise ConstrainedDecodingError(
            f"no valid SQL among {len(candidates)} candidates; "
            f"first problems: {rejected[0].problems if rejected else []}"
        )

    def rejection_sample(
        self,
        llm: SimulatedLLM,
        question: str,
        gold_sql: str,
        max_attempts: int = 8,
        batch: int = 2,
    ) -> DecodeResult:
        """Draw samples from ``llm`` until one passes validation."""
        rejected: list[ValidationReport] = []
        attempts = 0
        while attempts < max_attempts:
            take = min(batch, max_attempts - attempts)
            start_index = attempts
            samples = llm.generate_sql(question, gold_sql, n_samples=start_index + take)
            for candidate in samples[start_index:]:
                attempts += 1
                report = self.validator.check_output(candidate)
                if report.valid:
                    return DecodeResult(
                        output=candidate, attempts=attempts, rejected=rejected
                    )
                rejected.append(report)
        raise ConstrainedDecodingError(
            f"no valid SQL after {max_attempts} samples for {question!r}"
        )
