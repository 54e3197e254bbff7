"""Explanation objects with machine-checkable quality properties.

Section 2.2 defines two formal properties an explanation must satisfy:

* **losslessness** — the explanation faithfully represents the
  calculations and source data that produced the answer;
* **invertibility** — individual calculations can be recovered from the
  explanation alone.

Here both are *checks*, not assumptions: :func:`check_losslessness`
verifies that the explanation's recorded lineage and query text agree with
the result they claim to explain, and :func:`check_invertibility` actually
re-runs the recorded query and re-fetches every cited source row.  The E5
benchmark reports the pass rates and the runtime overhead of capturing
enough metadata to pass.

An explanation built by :meth:`ExplanationBuilder.from_query_result`
renders ``source_rows``, ``source_tables`` and ``how`` on first read, from
the (immutable) result's lineage index and how-polynomials, which it
shares rather than copies: an answer whose explanation nobody reads pays
for neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.sqldb
    from repro.sqldb.database import Database, QueryResult

#: Each field ``from_query_result`` defers, rendered from (lineage index, polynomials).
_RENDERERS = {
    "source_rows": lambda lineage, how: lineage.sorted_atoms(),
    "source_tables": lambda lineage, how: list(lineage.tables),
    "how": lambda lineage, how: [str(polynomial) for polynomial in how],
}


@dataclass
class Explanation:
    """A self-contained explanation of one structured-data answer.

    Fields mirror what the paper requires the provenance annotation to
    include: "data sources, query provenance, and code and APIs involved".
    """

    question: str | None
    sql: str
    columns: list[str]
    rows: list[tuple]
    source_rows: list[tuple[str, int]]
    source_tables: list[str]
    how: list[str] = field(default_factory=list)
    grounding_notes: list[str] = field(default_factory=list)
    computation_notes: list[str] = field(default_factory=list)

    def __getattr__(self, name: str):
        # Reached only for a field ``from_query_result`` left unset.
        render = _RENDERERS.get(name)
        if render is None or "_lineage" not in self.__dict__:
            raise AttributeError(name)
        value = render(self._lineage, self._polynomials)
        setattr(self, name, value)
        return value

    @property
    def code_snippet(self) -> str:
        """A runnable snippet that reproduces the answer (P3: explain
        "using code")."""
        lines = [
            "from repro.sqldb import Database",
            "",
            "db = ...  # the session database",
            f"result = db.execute({self.sql!r})",
            "print(result.columns)",
            "print(result.rows)",
        ]
        return "\n".join(lines)

    def to_text(self, max_sources: int = 5) -> str:
        """A concise natural-language rendering of the explanation."""
        parts: list[str] = []
        if self.question:
            parts.append(f"Question: {self.question}")
        parts.append(f"Answer computed by the query: {self.sql}")
        if self.source_tables:
            parts.append(
                "Data sources: " + ", ".join(sorted(self.source_tables))
            )
        if self.source_rows:
            shown = ", ".join(
                f"{table}[{row_id}]" for table, row_id in self.source_rows[:max_sources]
            )
            suffix = ""
            if len(self.source_rows) > max_sources:
                suffix = f" (+{len(self.source_rows) - max_sources} more)"
            parts.append(f"Supporting rows: {shown}{suffix}")
        else:
            parts.append("Supporting rows: none (the result is empty or constant)")
        for note in self.grounding_notes:
            parts.append(f"Grounding: {note}")
        for note in self.computation_notes:
            parts.append(f"Computation: {note}")
        return "\n".join(parts)


class ExplanationBuilder:
    """Builds :class:`Explanation` objects from provenance-annotated results."""

    def __init__(self, database: "Database"):
        self._database = database

    def from_query_result(
        self,
        result: "QueryResult",
        question: str | None = None,
        grounding_notes: list[str] | None = None,
        computation_notes: list[str] | None = None,
    ) -> Explanation:
        """Package ``result`` (and its lineage) as an explanation."""
        # Bypass __init__: the fields left unset render on first read.
        explanation = Explanation.__new__(Explanation)
        explanation.__dict__.update(
            question=question,
            sql=result.sql,
            columns=list(result.columns),
            rows=list(result.rows),
            grounding_notes=list(grounding_notes or []),
            computation_notes=list(computation_notes or []),
            _lineage=result.lineage_index,
            _polynomials=result.how or (),
        )
        return explanation


def check_losslessness(explanation: Explanation, result: "QueryResult") -> list[str]:
    """Verify ``explanation`` faithfully represents ``result``.

    Returns a list of violations (empty means the check passes):

    * the recorded rows/columns must equal the result's,
    * the recorded lineage must equal the result's lineage,
    * the recorded SQL must parse back to the statement that ran
      (text -> AST round trip), so the "calculation" in the explanation is
      the calculation that happened.
    """
    from repro.sqldb.parser import parse_sql

    violations: list[str] = []
    if explanation.columns != list(result.columns):
        violations.append("explanation columns differ from result columns")
    if explanation.rows != list(result.rows):
        violations.append("explanation rows differ from result rows")
    recorded = frozenset(explanation.source_rows)
    actual = result.all_source_rows()
    if recorded != actual:
        missing = sorted(actual - recorded)
        extra = sorted(recorded - actual)
        if missing:
            violations.append(f"lineage missing from explanation: {missing[:5]}")
        if extra:
            violations.append(f"explanation cites rows not in lineage: {extra[:5]}")
    if result.statement is not None:
        try:
            reparsed = parse_sql(explanation.sql)
        except Exception as exc:  # noqa: BLE001 - any parse failure is a violation
            violations.append(f"recorded SQL does not parse: {exc}")
        else:
            if reparsed.to_sql() != result.statement.to_sql():
                violations.append("recorded SQL does not round-trip to the executed statement")
    return violations


def check_invertibility(
    explanation: Explanation, database: "Database"
) -> list[str]:
    """Recover the calculation from the explanation alone and re-run it.

    Violations (empty list means the explanation is invertible):

    * every cited source row must still be fetchable,
    * re-executing the recorded SQL must reproduce the recorded rows.
    """
    violations: list[str] = []
    for table, row_id in explanation.source_rows:
        try:
            database.fetch_source_row(table, row_id)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the check
            violations.append(f"source row {table}[{row_id}] not recoverable: {exc}")
    try:
        replay = database.execute(explanation.sql)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"recorded SQL cannot be re-executed: {exc}")
        return violations
    if list(replay.rows) != list(explanation.rows):
        violations.append("re-executing the recorded SQL gives different rows")
    if list(replay.columns) != list(explanation.columns):
        violations.append("re-executing the recorded SQL gives different columns")
    return violations


def require_lossless(explanation: Explanation, result: "QueryResult") -> None:
    """Raise :class:`~repro.errors.LosslessnessViolation` on any violation."""
    from repro.errors import LosslessnessViolation

    violations = check_losslessness(explanation, result)
    if violations:
        raise LosslessnessViolation("; ".join(violations))


def require_invertible(explanation: Explanation, database: "Database") -> None:
    """Raise :class:`~repro.errors.InvertibilityViolation` on any violation."""
    from repro.errors import InvertibilityViolation

    violations = check_invertibility(explanation, database)
    if violations:
        raise InvertibilityViolation("; ".join(violations))
