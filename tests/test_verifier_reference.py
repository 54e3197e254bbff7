"""The set-at-a-time verifier against a brute-force, per-atom reference.

The reference below re-derives an answer one lineage atom at a time: it
fetches every cited row through ``Database.fetch_source_row``, resolves
the cited table again for every row it evaluates, and walks the lineage
once per check.  That is slow but easy to read, so it is the oracle for
the grouped verifier in :mod:`repro.soundness.verifier`.

Hypothesis generates single-table queries over the ``employees_db``
tables (filters, aggregates with and without GROUP BY, DISTINCT,
uncorrelated subqueries, aliases) and then tampers with the answer or the
database.  Both verifiers must agree on ``passed``, on the exact ordered
issue list and on every ``RowVerdict``.  The one intended difference: a
cited row of a table the query did not read is reported by the grouped
verifier only.  One test spells out what it must report instead; another
turns on the reference's ``foreign_rule`` (that report, plus skipping
such rows when re-deriving) and asks for exact agreement again.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SoundnessError
from repro.soundness.verifier import (
    AnswerVerifier,
    RowVerdict,
    VerificationReport,
    verify_rows,
)
from repro.sqldb import ast
from repro.sqldb.aggregates import make_aggregator
from repro.sqldb.compile import compile_expression
from repro.sqldb.database import Database, QueryResult
from repro.sqldb.executor import SelectExecutor
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.parser import parse_sql
from tests.conftest import build_employees_db

# -- the per-atom reference ---------------------------------------------------------


class ReferenceVerifier(AnswerVerifier):
    """``AnswerVerifier`` with per-atom re-execution and provenance depths."""

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

    def _verify_provenance(self, result: QueryResult) -> VerificationReport:
        return reference_provenance(self.database, result)


def reference_provenance(
    database: Database, result: QueryResult, foreign_rule: bool = False
) -> VerificationReport:
    """The per-atom provenance depth; ``foreign_rule`` adds the one new rule.

    With ``foreign_rule`` a single-table answer's atoms naming another
    table are reported in the existence pass and skipped by the WHERE and
    aggregate re-derivations, which is what the grouped verifier does.
    """
    checks = ["fetch every cited source row"]
    issues: list[str] = []
    if not result.lineage and result.rows:
        return VerificationReport(
            depth="provenance",
            passed=False,
            checks_run=checks,
            issues=["answer has rows but no lineage was captured"],
        )
    statement = result.statement
    simple = statement is not None and AnswerVerifier._is_simple_single_table(statement)
    foreign = _foreign_test(statement if simple and foreign_rule else None)
    for row_lineage in result.lineage:
        for table_name, row_id in row_lineage:
            if foreign(table_name):
                issues.append(_foreign_issue(statement, table_name, row_id))
                continue
            try:
                database.fetch_source_row(table_name, row_id)
            except Exception as exc:  # noqa: BLE001
                issues.append(f"cited row {table_name}[{row_id}] is gone: {exc}")
    if simple:
        checks.append("re-apply WHERE to cited rows")
        issues.extend(_check_filter_on_lineage(database, result, statement, foreign))
        aggregate = AnswerVerifier._single_aggregate(statement)
        if aggregate is not None and not statement.group_by:
            checks.append("recompute aggregate from cited rows alone")
            issues.extend(
                _recompute_aggregate(database, result, statement, aggregate, foreign)
            )
    return VerificationReport(
        depth="provenance", passed=not issues, checks_run=checks, issues=issues
    )


def _foreign_test(statement: ast.SelectStatement | None):
    """``foreign(table_name)``: never true without a statement to check against."""
    if statement is None:
        return lambda table_name: False
    queried = statement.from_table.name.lower()
    return lambda table_name: table_name.lower() != queried


def _foreign_issue(statement: ast.SelectStatement, table_name: str, row_id: int) -> str:
    return (
        f"cited row {table_name}[{row_id}] is not from the queried table "
        f"{statement.from_table.name}"
    )


def _check_filter_on_lineage(
    database: Database, result: QueryResult, statement: ast.SelectStatement, foreign
) -> list[str]:
    if statement.where is None:
        return []
    evaluate = _cited_row_evaluator(database, statement, statement.where)
    issues: list[str] = []
    for row_lineage in result.lineage:
        for table_name, row_id in row_lineage:
            if foreign(table_name):
                continue
            try:
                verdict = evaluate(table_name, row_id)
            except Exception as exc:  # noqa: BLE001
                issues.append(f"cannot re-check filter on {table_name}[{row_id}]: {exc}")
                continue
            if verdict is not True:
                issues.append(
                    f"cited row {table_name}[{row_id}] does not satisfy "
                    "the query's WHERE clause"
                )
    return issues


def _recompute_aggregate(
    database: Database,
    result: QueryResult,
    statement: ast.SelectStatement,
    aggregate: ast.AggregateCall,
    foreign,
) -> list[str]:
    if len(result.rows) != 1 or len(result.rows[0]) != 1:
        return []
    reported = result.rows[0][0]
    accumulator = make_aggregator(
        aggregate.name,
        star=isinstance(aggregate.argument, ast.Star),
        distinct=aggregate.distinct,
    )
    evaluate = _cited_row_evaluator(database, statement, aggregate.argument)
    for table_name, row_id in sorted(result.all_source_rows()):
        if foreign(table_name):
            continue
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


def reference_verify_rows(
    database: Database, result: QueryResult, foreign_rule: bool = False
) -> list[RowVerdict] | None:
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
    agg_position = None
    for position, item in enumerate(statement.items):
        if ast.collect_aggregates(item.expression) and item.expression == aggregate:
            agg_position = position
    if agg_position is None:
        return None
    table = database.catalog.table(statement.from_table.name)
    evaluate = _cited_row_evaluator(database, statement, aggregate.argument)
    foreign = _foreign_test(statement if foreign_rule else None)
    verdicts: list[RowVerdict] = []
    for row_index, (row, lineage) in enumerate(zip(result.rows, result.lineage)):
        accumulator = make_aggregator(
            aggregate.name,
            star=isinstance(aggregate.argument, ast.Star),
            distinct=aggregate.distinct,
        )
        try:
            for table_name, row_id in sorted(lineage):
                if foreign(table_name):
                    raise SoundnessError(_foreign_issue(statement, table_name, row_id))
                if isinstance(aggregate.argument, ast.Star):
                    table.get_row(row_id)
                    accumulator.step(1)
                else:
                    accumulator.step(evaluate(table.name, row_id))
        except Exception as exc:  # noqa: BLE001
            verdicts.append(RowVerdict(row_index, False, f"cannot re-derive: {exc}"))
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
    """``evaluate(table_name, row_id)``: the table is resolved on every call."""
    catalog = database.catalog
    binding = statement.from_table.binding
    subquery_cache: dict[str, list[tuple]] = {}

    def run_subquery(subquery: ast.SelectStatement) -> list[tuple]:
        return SelectExecutor(catalog, capture_lineage=False).execute(subquery).rows

    def evaluate(table_name: str, row_id: int):
        table = catalog.table(table_name)
        layout = RowLayout([BoundColumn(binding, column.name) for column in table.schema])
        fn = compile_expression(
            expression, layout, subquery_runner=run_subquery, subquery_cache=subquery_cache
        )
        return fn(table.get_row(row_id))

    return evaluate


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
    return a == b


# -- random single-table queries ---------------------------------------------------

TABLES = {
    "employees": {
        "numeric": {"id": (0, 6), "salary": (60, 110)},
        "text": {
            "name": ["ann", "bob", "cat", "zed"],
            "department": ["engineering", "sales", "hr"],
            "city": ["zurich", "bern", "geneva"],
        },
        "other": "departments",
    },
    "departments": {
        "numeric": {"budget": (250, 550), "floor": (1, 4)},
        "text": {"department": ["engineering", "sales", "hr"]},
        "other": "employees",
    },
}
AGGREGATES = ("COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX")


@st.composite
def predicates(draw, table: str, ref, depth: int = 0) -> str:
    spec = TABLES[table]
    kind = draw(
        st.sampled_from(
            ["numeric", "text", "null", "scalar_subquery", "in_subquery"]
            + (["and", "or", "not"] if depth < 2 else [])
        )
    )
    if kind == "numeric":
        column = draw(st.sampled_from(sorted(spec["numeric"])))
        low, high = spec["numeric"][column]
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        return f"{ref(column)} {op} {draw(st.integers(low, high))}"
    if kind == "text":
        column = draw(st.sampled_from(sorted(spec["text"])))
        op = draw(st.sampled_from(["=", "<>"]))
        return f"{ref(column)} {op} '{draw(st.sampled_from(spec['text'][column]))}'"
    if kind == "null":
        column = draw(st.sampled_from(sorted(spec["numeric"])))
        return f"{ref(column)} IS {draw(st.sampled_from(['NULL', 'NOT NULL']))}"
    if kind == "scalar_subquery":
        column = draw(st.sampled_from(sorted(spec["numeric"])))
        op = draw(st.sampled_from(["<", ">"]))
        return f"{ref(column)} {op} (SELECT AVG({column}) FROM {table})"
    if kind == "in_subquery":
        floor = draw(st.integers(1, 4))
        return (
            f"{ref('department')} IN "
            f"(SELECT department FROM departments WHERE floor = {floor})"
        )
    if kind == "not":
        return f"NOT ({draw(predicates(table, ref, depth + 1))})"
    left = draw(predicates(table, ref, depth + 1))
    right = draw(predicates(table, ref, depth + 1))
    return f"({left}) {kind.upper()} ({right})"


@st.composite
def aggregate_calls(draw, table: str, ref) -> str:
    spec = TABLES[table]
    name = draw(st.sampled_from(AGGREGATES))
    if name == "COUNT(*)":
        return name
    if name in ("SUM", "AVG"):
        column = draw(st.sampled_from(sorted(spec["numeric"])))
    else:
        column = draw(st.sampled_from(sorted(spec["numeric"]) + sorted(spec["text"])))
    distinct = "DISTINCT " if draw(st.integers(0, 3)) == 0 else ""
    return f"{name}({distinct}{ref(column)})"


@st.composite
def single_table_queries(draw) -> str:
    table = draw(st.sampled_from(sorted(TABLES)))
    spec = TABLES[table]
    alias = draw(st.sampled_from([None, "t"]))
    qualify = alias is not None and draw(st.booleans())

    def ref(column: str) -> str:
        return f"{alias}.{column}" if qualify else column

    source = f"{table} AS {alias}" if alias else table
    where = f" WHERE {draw(predicates(table, ref))}" if draw(st.integers(0, 3)) else ""
    columns = sorted(spec["numeric"]) + sorted(spec["text"])
    shape = draw(st.sampled_from(["projection", "aggregate", "grouped"]))
    if shape == "projection":
        picked = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        return f"SELECT {distinct}{', '.join(map(ref, picked))} FROM {source}{where}"
    aggregate = draw(aggregate_calls(table, ref))
    if shape == "aggregate":
        return f"SELECT {aggregate} FROM {source}{where}"
    group = ref(draw(st.sampled_from(sorted(spec["text"]))))
    return f"SELECT {group}, {aggregate} FROM {source}{where} GROUP BY {group}"


# -- tampering -----------------------------------------------------------------------

#: Tampers that keep every cited row inside the queried table.
SAME_TABLE_TAMPERS = (
    "none",
    "delete_cited_row",
    "edit_cited_value",
    "change_reported_value",
    "drop_atom",
    "add_same_table_atom",
    "cite_missing_id",
)


def _with_lineage(result: QueryResult, index: int, lineage: frozenset) -> None:
    result.lineage = [
        lineage if position == index else row_lineage
        for position, row_lineage in enumerate(result.lineage)
    ]


def _tamper(data, db: Database, result: QueryResult, table: str, kind: str) -> None:
    """Apply one tamper of ``kind`` (a no-op when the answer has nothing to tamper)."""
    cited = sorted(result.all_source_rows())
    if kind == "delete_cited_row" and cited:
        table_name, row_id = data.draw(st.sampled_from(cited))
        db.catalog.table(table_name).delete_row(row_id)
    elif kind == "edit_cited_value" and cited:
        table_name, row_id = data.draw(st.sampled_from(cited))
        source = db.catalog.table(table_name)
        values = list(source.get_row(row_id))
        # Prefer the columns the query mentions: editing those can matter.
        mentioned = [i for i, name in enumerate(source.column_names) if name in result.sql]
        position = data.draw(st.sampled_from(mentioned or range(len(values))))
        old = values[position]
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            values[position] = data.draw(st.sampled_from([None, old + 1000, -old, "x"]))
        else:
            values[position] = data.draw(st.sampled_from([None, "tampered", "sales", 7]))
        source._rows[row_id] = tuple(values)
        source._version += 1
    elif kind == "change_reported_value" and result.rows:
        index = data.draw(st.integers(0, len(result.rows) - 1))
        row = list(result.rows[index])
        position = data.draw(st.integers(0, len(row) - 1))
        old = row[position]
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            row[position] = data.draw(st.sampled_from([old + 1, old * 2 + 7, None]))
        else:
            row[position] = data.draw(st.sampled_from([None, 999, "tampered"]))
        rows = list(result.rows)
        rows[index] = tuple(row)
        result.rows = rows
    elif kind == "drop_atom" and cited:
        candidates = [i for i, lineage in enumerate(result.lineage) if lineage]
        index = data.draw(st.sampled_from(candidates))
        atom = data.draw(st.sampled_from(sorted(result.lineage[index])))
        _with_lineage(result, index, result.lineage[index] - {atom})
    elif kind in ("add_same_table_atom", "cite_missing_id") and result.lineage:
        index = data.draw(st.integers(0, len(result.lineage) - 1))
        if kind == "cite_missing_id":
            row_id = data.draw(st.sampled_from([99, 1000, -1]))
        else:
            row_id = data.draw(st.sampled_from(db.catalog.table(table).row_ids))
        _with_lineage(result, index, result.lineage[index] | {(table, row_id)})


def _assert_same_reports(ours: VerificationReport, theirs: VerificationReport) -> None:
    assert ours.passed == theirs.passed
    assert ours.issues == theirs.issues
    assert ours.checks_run == theirs.checks_run
    assert ours.depth == theirs.depth


class TestAgainstReference:
    @pytest.mark.parametrize("tamper", SAME_TABLE_TAMPERS)
    @settings(max_examples=80, deadline=None)
    @given(sql=single_table_queries(), data=st.data())
    def test_same_table_tampers_agree(self, tamper, sql, data):
        db = build_employees_db()
        result = db.execute(sql)
        table = result.statement.from_table.name
        _tamper(data, db, result, table, tamper)
        ours, reference = AnswerVerifier(db), ReferenceVerifier(db)
        _assert_same_reports(ours._verify_provenance(result), reference_provenance(db, result))
        for depth in ("static", "reexecution", "provenance"):
            _assert_same_reports(ours.verify(result, depth), reference.verify(result, depth))
        assert verify_rows(db, result) == reference_verify_rows(db, result)

    @settings(max_examples=150, deadline=None)
    @given(sql=single_table_queries(), data=st.data())
    def test_foreign_atom_is_reported_instead(self, sql, data):
        """Citing another table's row fails, whatever the reference says."""
        db = build_employees_db()
        result = db.execute(sql)
        table = result.statement.from_table.name
        untampered = reference_provenance(db, result)
        untampered_rows = reference_verify_rows(db, result)
        # An untampered answer passes both verifiers.
        assert untampered.passed, untampered.issues
        assert AnswerVerifier(db).verify(result).passed
        if not result.lineage:
            return
        other = TABLES[table]["other"]
        row_id = data.draw(st.sampled_from(db.catalog.table(other).row_ids + [99]))
        index = data.draw(st.integers(0, len(result.lineage) - 1))
        _with_lineage(result, index, result.lineage[index] | {(other, row_id)})
        foreign = f"cited row {other}[{row_id}] is not from the queried table {table}"

        report = AnswerVerifier(db).verify(result)
        assert not report.passed
        assert report.issues == [foreign] + untampered.issues
        assert report.checks_run == [
            "sql parses and type-checks against the catalog",
            "re-execute recorded SQL and compare results",
            *untampered.checks_run,
        ]
        expected_rows = untampered_rows
        if expected_rows is not None:
            assert all(verdict.verified for verdict in expected_rows)
            expected_rows[index] = RowVerdict(index, False, f"cannot re-derive: {foreign}")
        assert verify_rows(db, result) == expected_rows

    @pytest.mark.parametrize("tamper", SAME_TABLE_TAMPERS)
    @settings(max_examples=40, deadline=None)
    @given(sql=single_table_queries(), data=st.data())
    def test_foreign_atom_with_another_tamper(self, tamper, sql, data):
        """With the foreign rule added, the reference matches exactly."""
        db = build_employees_db()
        result = db.execute(sql)
        table = result.statement.from_table.name
        _tamper(data, db, result, table, tamper)
        if result.lineage:
            other = TABLES[table]["other"]
            row_id = data.draw(st.sampled_from(db.catalog.table(other).row_ids + [99]))
            index = data.draw(st.integers(0, len(result.lineage) - 1))
            _with_lineage(result, index, result.lineage[index] | {(other, row_id)})
        _assert_same_reports(
            AnswerVerifier(db)._verify_provenance(result),
            reference_provenance(db, result, foreign_rule=True),
        )
        assert verify_rows(db, result) == reference_verify_rows(
            db, result, foreign_rule=True
        )


def _set_value(db: Database, table_name: str, row_id: int, column: str, value) -> None:
    table = db.catalog.table(table_name)
    values = list(table.get_row(row_id))
    values[table.schema.index_of(column)] = value
    table._rows[row_id] = tuple(values)
    table._version += 1


def _retarget(sql: str):
    def tamper(db: Database, result: QueryResult) -> None:
        result.statement = parse_sql(sql)

    return tamper


def _add_atoms(*atoms):
    def tamper(db: Database, result: QueryResult) -> None:
        result.lineage = [lineage | set(atoms) for lineage in result.lineage]

    return tamper


#: (query, tamper) pairs that pin paths a random example rarely reaches.
PINNED_CASES = {
    "first failing atom in sorted order": (
        "SELECT SUM(salary) FROM employees",
        lambda db, result: [_set_value(db, "employees", i, "salary", "x") for i in (3, 1)],
    ),
    "float SUM re-added in row-id order": (
        "SELECT SUM(salary) FROM employees",
        lambda db, result: [
            _set_value(db, "employees", i, "salary", value)
            for i, value in enumerate((0.1, 0.2, 0.3, 0.0))
        ],
    ),
    "COUNT(*) group cites a deleted row": (
        "SELECT department, COUNT(*) FROM employees GROUP BY department",
        lambda db, result: db.catalog.table("employees").delete_row(0),
    ),
    "NULL WHERE verdict on a cited row": (
        "SELECT name FROM employees WHERE salary > 75",
        lambda db, result: _set_value(db, "employees", 1, "salary", None),
    ),
    "WHERE naming an unknown column": (
        "SELECT name FROM employees WHERE salary > 75",
        _retarget("SELECT name FROM employees WHERE bogus > 75"),
    ),
    "aggregate over an unknown column": (
        "SELECT department, SUM(salary) FROM employees GROUP BY department",
        _retarget("SELECT department, SUM(bogus) FROM employees GROUP BY department"),
    ),
    "join cites an unknown table and a missing row": (
        "SELECT e.name FROM employees e JOIN departments d "
        "ON e.department = d.department WHERE d.floor = 3",
        _add_atoms(("nosuch", 1), ("departments", 9)),
    ),
    "union cites a missing row": (
        "SELECT name FROM employees WHERE city = 'bern' "
        "UNION SELECT department FROM departments",
        _add_atoms(("employees", 42)),
    ),
    "subquery filter over a deleted row": (
        "SELECT COUNT(*) FROM employees WHERE salary > (SELECT AVG(salary) FROM employees)",
        lambda db, result: db.catalog.table("employees").delete_row(0),
    ),
    "aggregate over a row gone from the table": (
        "SELECT AVG(salary) FROM employees WHERE city = 'zurich'",
        lambda db, result: db.catalog.table("employees").delete_row(2),
    ),
}


class TestPinnedCases:
    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_agrees_with_reference(self, employees_db, case):
        sql, tamper = PINNED_CASES[case]
        result = employees_db.execute(sql)
        tamper(employees_db, result)
        reference = reference_provenance(employees_db, result)
        reference_rows = reference_verify_rows(employees_db, result)
        # Every pinned tamper is caught, by the answer or by a row verdict.
        assert not reference.passed or not all(v.verified for v in reference_rows)
        _assert_same_reports(
            AnswerVerifier(employees_db)._verify_provenance(result), reference
        )
        assert verify_rows(employees_db, result) == reference_rows

    def test_first_failing_atom_is_the_lowest_id(self, employees_db):
        sql, tamper = PINNED_CASES["first failing atom in sorted order"]
        result = employees_db.execute(sql)
        tamper(employees_db, result)
        issues = AnswerVerifier(employees_db)._verify_provenance(result).issues
        assert issues == [
            "cannot recompute aggregate on employees[1]: "
            "SUM requires numeric input, got 'x'"
        ]


    def test_float_sum_follows_row_id_order(self, employees_db):
        sql, tamper = PINNED_CASES["float SUM re-added in row-id order"]
        result = employees_db.execute(sql)
        tamper(employees_db, result)
        issues = AnswerVerifier(employees_db)._verify_provenance(result).issues
        assert issues == [
            "aggregate recomputed from cited rows is 0.6000000000000001, "
            "but the answer reports 340.0"
        ]


class TestReferenceHarness:
    """The reference itself: it must fail the tampers the suite relies on."""

    def test_reference_passes_the_foreign_table_tamper(self, employees_db):
        """The blind spot the grouped verifier closes (see test_soundness)."""
        result = employees_db.execute(
            "SELECT COUNT(*) FROM employees WHERE department = 'engineering'"
        )
        result.lineage = [frozenset({("departments", 0), ("employees", 0)})]
        assert reference_provenance(employees_db, result).passed

    @pytest.mark.parametrize("tampered", [[(5.0,)], [(5,), (5,)], []])
    def test_reexecution_compares_rows_by_repr(self, employees_db, tampered):
        """``5`` and ``5.0`` differ, and so do row multiplicities."""
        result = employees_db.execute("SELECT COUNT(*) FROM employees")
        result.rows = tampered
        for verifier in (AnswerVerifier(employees_db), ReferenceVerifier(employees_db)):
            report = verifier.verify(result, depth="reexecution")
            assert report.issues == ["re-execution produced different rows"]
