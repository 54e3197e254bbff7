"""ORDER BY and LIMIT in the executor, against the comparator it replaced.

The executor orders pre-projection rows with one stable key sort per
ORDER BY key, cuts them at LIMIT/OFFSET and only then evaluates the
select list.  :class:`ReferenceExecutor` below keeps the former tail:
project every row, merge DISTINCT rows, sort with a Python comparator (a
bare output-name key read from the projected row, any other key
evaluated on the pre-projection row), then slice.  It is slow but easy
to read, so it is the oracle: hypothesis draws random tables (integer,
float, boolean, text and NULL values with many ties) and queries (keys
by output name, alias, unselected column, expression or aggregate; 1–3
keys in mixed directions; GROUP BY and DISTINCT; LIMIT/OFFSET from 0 to
past the row count), and both executors must return the same rows in
the same order with the same lineage and how-polynomials.

The intended differences are pinned by the tests after the property:
positional keys (the comparator sorted by the integer as a constant),
DISTINCT keys the output does not determine, select-list errors on rows
the LIMIT cuts, and a mixed-type key behind a key that already decides
the order.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqldb import Database, ast
from repro.sqldb.executor import ExecRow, Relation, SelectExecutor, SelectResult
from repro.sqldb.parser import parse_sql
from repro.sqldb.types import SQLValue
from tests.sqlite_oracle import copy_to_sqlite

# -- the comparator reference --------------------------------------------------------


class ReferenceExecutor(SelectExecutor):
    """``SelectExecutor`` with the eager project → distinct → sort → limit
    tail.  It gets its rows from ``_rows_to_project``, so it shares the
    executor's scan, join, WHERE and GROUP BY: only the tail is
    independent here (``tests/test_sqldb_join_reference.py`` checks the
    rest against row-at-a-time operators)."""

    def _execute_single(self, statement: ast.SelectStatement) -> SelectResult:
        relation, aggregate_slots = self._rows_to_project(statement)
        items = self._expand_items(statement, relation.layout)
        columns = [item.output_name(position) for position, item in enumerate(items)]
        item_fns = self._compile_values(
            [item.expression for item in items], relation.layout, aggregate_slots
        )
        projected = [
            (row, ExecRow(tuple(f(row.values) for f in item_fns), row.lineage, row.how))
            for row in relation.rows
        ]
        if statement.distinct:
            projected = self._reference_distinct(projected)
        if statement.order_by:
            projected = self._reference_sort(
                projected, relation, statement, columns, aggregate_slots
            )
        start = statement.offset or 0
        if statement.limit is None:
            projected = projected[start:]
        else:
            projected = projected[start : start + statement.limit]
        return SelectResult(
            columns=columns,
            rows=[row.values for _pre, row in projected],
            lineage=[row.lineage for _pre, row in projected],
            how=[row.how for _pre, row in projected] if self._capture_how else None,
            scanned_rows=self._scanned_rows,
        )

    def _reference_distinct(
        self, projected: list[tuple[ExecRow, ExecRow]]
    ) -> list[tuple[ExecRow, ExecRow]]:
        buckets: dict[tuple, list[tuple[ExecRow, ExecRow]]] = {}
        order: list[tuple] = []
        for pre, out in projected:
            key = out.values
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append((pre, out))
        result: list[tuple[ExecRow, ExecRow]] = []
        for key in order:
            group = buckets[key]
            first_pre, first_out = group[0]
            lineage, how = self._merge_union([out for _pre, out in group])
            result.append((first_pre, ExecRow(first_out.values, lineage, how)))
        return result

    def _reference_sort(
        self,
        projected: list[tuple[ExecRow, ExecRow]],
        relation: Relation,
        statement: ast.SelectStatement,
        columns: list[str],
        aggregate_slots: dict[str, int],
    ) -> list[tuple[ExecRow, ExecRow]]:
        column_positions = {name.lower(): index for index, name in enumerate(columns)}
        #: Per ORDER BY key: ("out", output position) for bare output
        #: columns, ("pre", compiled expr) evaluated over the
        #: pre-projection row otherwise.
        extractors: list[tuple[str, object]] = []
        for order_item in statement.order_by:
            expression = order_item.expression
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.name.lower() in column_positions
            ):
                extractors.append(("out", column_positions[expression.name.lower()]))
            else:
                extractors.append(
                    (
                        "pre",
                        self._compile_one(expression, relation.layout, aggregate_slots),
                    )
                )

        def sort_keys(pair: tuple[ExecRow, ExecRow]) -> list[SQLValue]:
            pre, out = pair
            keys: list[SQLValue] = []
            for kind, extractor in extractors:
                if kind == "out":
                    keys.append(out.values[extractor])
                else:
                    keys.append(extractor(pre.values))
            return keys

        decorated = [(sort_keys(pair), pair) for pair in projected]
        directions = [item.descending for item in statement.order_by]

        def compare(a: tuple, b: tuple) -> int:
            for key_a, key_b, descending in zip(a[0], b[0], directions):
                verdict = _compare_sort_values(key_a, key_b)
                if verdict == 0:
                    continue
                return -verdict if descending else verdict
            return 0

        decorated.sort(key=functools.cmp_to_key(compare))
        return [pair for _keys, pair in decorated]


def _compare_sort_values(a: SQLValue, b: SQLValue) -> int:
    """Compare for ORDER BY: NULLs sort last in ascending order."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    if a == b:
        return 0
    try:
        return -1 if a < b else 1
    except TypeError as exc:
        raise ExecutionError(
            f"cannot order {type(a).__name__} against {type(b).__name__}"
        ) from exc


# -- random tables and queries -------------------------------------------------------

_ROWS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 3, None]),
        st.sampled_from([-1.5, 0.5, 1.0, 2.0, None]),
        st.sampled_from([True, False, None]),
        st.sampled_from(["a", "b", "B", "", None]),
        st.sampled_from([0, 1]),
    ),
    max_size=14,
)

#: Keys that read any column of ``t``, selected or not.
_FREE_KEYS = [
    "k", "x", "b", "s", "g", "t.k", "k * 2", "-x", "k + x",
    "CASE WHEN b THEN k ELSE x END", "COALESCE(s, 'z')", "UPPER(s)",
]
#: A key that mixes text and numbers: it raises once both occur.
_MIXED_KEY = "CASE WHEN b THEN s ELSE k END"
_GROUP_KEYS = [
    "g", "t.g", "n", "total", "COUNT(*)", "SUM(x)", "MAX(k) - MIN(k)", "AVG(x)",
    "MIN(s)", "k",
]


def _table(rows) -> Database:
    db = Database(capture_how=True)
    db.execute("CREATE TABLE t (k INT, x FLOAT, b BOOLEAN, s TEXT, g INT)")
    for row in rows:
        db.catalog.table("t").insert(row)
    return db


@st.composite
def _statements(draw) -> ast.SelectStatement:
    mode = draw(st.sampled_from(["plain", "distinct", "grouped", "grouped distinct"]))
    if mode.startswith("grouped"):
        group_by = draw(st.sampled_from(["g", "g, b", "s"]))
        items = [group_by.split(",")[0], "COUNT(*) AS n", "SUM(k) AS total", "MAX(x)"]
        candidates = _GROUP_KEYS + ["col_3"]
        tail = f" GROUP BY {group_by}"
    else:
        columns = draw(
            st.lists(st.sampled_from("kxbsg"), min_size=1, max_size=5, unique=True)
        )
        extras = draw(
            st.lists(st.sampled_from(["k + g AS kg", "s AS label"]), unique=True)
        )
        items = list(columns) + extras
        candidates = _FREE_KEYS + [e.split(" AS ")[1] for e in extras]
        tail = ""
    distinct = mode.endswith("distinct")
    if distinct:
        # Only keys the output row determines: output names and aliases,
        # or expressions over columns output bare.
        outputs = [item.split(" AS ")[-1] for item in items]
        bare = [item for item in items if item in set("kxbsg")]
        numeric = [column for column in bare if column in "kxg"]
        candidates = outputs + [f"{column} * 2" for column in numeric] + [
            f"-{column}" for column in numeric
        ]
        if "k" in bare and "x" in bare:
            candidates.append("k + x")
    keys = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3))
    if not distinct and draw(st.integers(0, 4)) == 0:
        keys[0] = _MIXED_KEY  # first, where both executors must meet it
    order = ", ".join(
        f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}" for key in keys
    )
    sql = (
        f"SELECT {'DISTINCT ' if distinct else ''}{', '.join(items)} FROM t"
        f"{tail} ORDER BY {order}"
    )
    return dataclasses.replace(
        parse_sql(sql),
        limit=draw(st.sampled_from([None, 0, 1, 2, 5, 100])),
        offset=draw(st.sampled_from([None, 0, 1, 3, 50])),
    )


def _run(executor: type[SelectExecutor], db: Database, statement, capture_how):
    try:
        return executor(db.catalog, capture_how=capture_how).execute(statement)
    except ExecutionError:
        return ExecutionError


class TestAgainstComparatorReference:
    @settings(max_examples=400, deadline=None)
    @given(rows=_ROWS, statement=_statements(), capture_how=st.booleans())
    def test_key_sort_equals_comparator_sort(self, rows, statement, capture_how):
        db = _table(rows)
        expected = _run(ReferenceExecutor, db, statement, capture_how)
        actual = _run(SelectExecutor, db, statement, capture_how)
        if expected is ExecutionError:
            assert actual is ExecutionError, statement.to_sql()
            return
        assert actual is not ExecutionError, statement.to_sql()
        assert actual.columns == expected.columns
        # repr tells True from 1 and 1 from 1.0, so value types must agree too.
        assert repr(actual.rows) == repr(expected.rows), statement.to_sql()
        assert actual.lineage == expected.lineage
        assert actual.how == expected.how
        assert actual.scanned_rows == expected.scanned_rows

    def test_mixed_type_key_raises_in_both(self):
        db = _table([(1, None, True, "a", 0), (2, None, False, "b", 0)])
        statement = parse_sql(f"SELECT k FROM t ORDER BY {_MIXED_KEY}")
        for executor in (ReferenceExecutor, SelectExecutor):
            with pytest.raises(ExecutionError, match="cannot order"):
                executor(db.catalog).execute(statement)


# -- intended differences --------------------------------------------------------------


def _sqlite_rows(db: Database, sql: str) -> list[tuple]:
    with closing(copy_to_sqlite(db)) as connection:
        return connection.execute(sql).fetchall()


class TestPositionalKeys:
    """An integer ORDER BY term is a 1-based output column, as in sqlite3."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name, salary FROM employees ORDER BY 2",
            "SELECT name, salary FROM employees ORDER BY 1 DESC",
            "SELECT department, name FROM employees ORDER BY 1, 2 DESC",
            "SELECT city, COUNT(*) FROM employees GROUP BY city ORDER BY 2 DESC, 1",
            "SELECT DISTINCT department FROM employees ORDER BY 1 DESC",
        ],
    )
    def test_matches_sqlite(self, employees_db, sql):
        # NULLs sort last here; sqlite3 needs it spelled out (difference 4).
        sqlite_sql = sql + " NULLS LAST" if sql.endswith("ORDER BY 2") else sql
        assert list(employees_db.execute(sql).rows) == _sqlite_rows(employees_db, sqlite_sql)

    @pytest.mark.parametrize("term", ["0", "3", "1, 3"])
    def test_out_of_range_raises_like_sqlite(self, employees_db, term):
        sql = f"SELECT name, salary FROM employees ORDER BY {term}"
        with pytest.raises(ExecutionError, match="out of range"):
            employees_db.execute(sql)
        with pytest.raises(Exception, match="out of range"):
            _sqlite_rows(employees_db, sql)

    def test_float_literal_stays_a_constant(self, employees_db):
        sql = "SELECT name FROM employees ORDER BY 2.0"
        unordered = employees_db.execute("SELECT name FROM employees").rows
        assert employees_db.execute(sql).rows == unordered
        assert _sqlite_rows(employees_db, sql) == list(unordered)

    def test_negated_integer_stays_a_constant(self, employees_db):
        # Dialect difference 6: sqlite3 reports ORDER BY -1 out of range.
        unordered = employees_db.execute("SELECT name FROM employees").rows
        sql = "SELECT name FROM employees ORDER BY -1"
        assert employees_db.execute(sql).rows == unordered


class TestDistinctKeys:
    def test_key_outside_the_output_raises(self, employees_db):
        # The salary of whichever row came first in each merged group.
        with pytest.raises(ExecutionError, match="DISTINCT"):
            employees_db.execute(
                "SELECT DISTINCT department FROM employees ORDER BY salary"
            )

    def test_aggregate_outside_the_output_raises(self, employees_db):
        with pytest.raises(ExecutionError, match="DISTINCT"):
            employees_db.execute(
                "SELECT DISTINCT COUNT(*) FROM employees GROUP BY city "
                "ORDER BY MAX(salary)"
            )

    @pytest.mark.parametrize(
        "order",
        [
            "department DESC",
            "dept DESC",
            "1 DESC",
            "employees.department DESC",
            "UPPER(department) DESC",
        ],
    )
    def test_keys_the_output_determines(self, employees_db, order):
        sql = f"SELECT DISTINCT department AS dept FROM employees ORDER BY {order}"
        assert list(employees_db.execute(sql).rows) == [("sales",), ("engineering",)]


class TestLazyProjection:
    def test_rows_cut_by_limit_are_never_projected(self, employees_db):
        # salary 100 would divide by zero; it sorts past the LIMIT.
        sql = "SELECT name, 10 / (salary - 100) FROM employees ORDER BY salary LIMIT 2"
        assert list(employees_db.execute(sql).rows) == [("dan", -1 / 3), ("cat", -0.5)]
        with pytest.raises(ExecutionError):
            employees_db.execute(sql.replace(" LIMIT 2", ""))


class TestKeySemantics:
    def test_mixed_type_key_raises_behind_a_deciding_key(self):
        # The comparator never reached the second key, because ``k`` is
        # unique; the key sort orders every key, so it always raises.
        db = _table([(1, None, True, "a", 0), (2, None, False, "b", 0)])
        statement = parse_sql(f"SELECT k FROM t ORDER BY k, {_MIXED_KEY}")
        assert ReferenceExecutor(db.catalog).execute(statement).rows == [(1,), (2,)]
        with pytest.raises(ExecutionError, match="cannot order int against str"):
            SelectExecutor(db.catalog).execute(statement)

    def test_true_ties_one_and_keeps_input_order(self):
        db = _table([(1, None, None, "first", 0), (None, None, True, "second", 0)])
        result = db.execute(
            "SELECT s FROM t ORDER BY CASE WHEN b THEN b ELSE k END DESC"
        )
        assert list(result.rows) == [("first",), ("second",)]
