"""Column-wise joins, WHERE, GROUP BY, sort and projection against rows.

The executor keeps a relation as positions into a column memo from scan
to LIMIT: a join yields (left, right) position pairs, and everything
above it runs batch forms over those positions.  :class:`RowReference`
below keeps the former row-at-a-time operators instead — nested-loop and
``ExecRow`` hash joins, a fused row filter for WHERE, GROUP BY through
row closures, a key sort over rows and a row-by-row select list — and
shares only the scan (already column-wise) and the compiled closures.

Hypothesis draws three small tables whose key columns hold ``1``,
``1.0`` and ``True`` (INTEGER, FLOAT and BOOLEAN columns), NULLs and
duplicates, and 2- and 3-table INNER, LEFT and CROSS joins with single,
composite and residual ON conditions (some of which raise, some after a
NULL conjunct), a WHERE above the join, GROUP BY, DISTINCT and ORDER BY
with ties plus LIMIT/OFFSET.  Both executors must return the same rows,
lineage, how-polynomials and ``scanned_rows``, or raise the same first
error; the same queries also go through the sqlite3 oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.provenance.semiring import Polynomial
from repro.sqldb import Database, ast
from repro.sqldb.aggregates import make_aggregator, make_fold
from repro.sqldb.executor import (
    EMPTY_LINEAGE,
    ExecRow,
    SelectExecutor,
    SelectResult,
    _all_true,
    _order_keys,
    _spec,
    _validate_grouped,
)
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.parser import parse_sql
from repro.sqldb.planner import JoinPlan, plan_select, split_conjuncts
from tests.sqlite_oracle import assert_matches_sqlite

# -- the row-at-a-time reference ------------------------------------------------------


class _Rows:
    """A row-at-a-time operator output: a layout and its rows."""

    def __init__(self, layout: RowLayout, rows: list[ExecRow]):
        self.layout, self.rows = layout, rows


class RowReference(SelectExecutor):
    """``SelectExecutor`` with the row-at-a-time join, filter, group, sort
    and projection the column-wise operators replaced."""

    def _execute_single(self, statement: ast.SelectStatement) -> SelectResult:
        relation, aggregate_slots = self._reference_rows(statement)
        items = self._expand_items(statement, relation.layout)
        item_fns = self._compile_values(
            [item.expression for item in items], relation.layout, aggregate_slots
        )
        if statement.distinct:
            key_rows, rows = self._reference_distinct(relation.rows, item_fns)
        else:
            key_rows = rows = relation.rows
        if statement.order_by:
            keys = _order_keys(statement, items, relation.layout)
            key_fns = self._compile_values(keys, relation.layout, aggregate_slots)
            rows = _row_sort(rows, key_rows, statement.order_by, key_fns)
        start = statement.offset or 0
        stop = None if statement.limit is None else start + statement.limit
        rows = rows[start:stop]
        if statement.distinct:
            values = [row.values for row in rows]
        else:
            values = [tuple(fn(row.values) for fn in item_fns) for row in rows]
        return SelectResult(
            columns=[item.output_name(position) for position, item in enumerate(items)],
            rows=values,
            lineage=[row.lineage for row in rows],
            how=[row.how for row in rows] if self._capture_how else None,
            scanned_rows=self._scanned_rows,
        )

    def _reference_rows(self, statement: ast.SelectStatement) -> tuple[_Rows, dict[str, int]]:
        self._scanned_rows = 0
        self._subquery_cache = {}
        plan = plan_select(statement, self._catalog)
        if plan.base is None:
            one = Polynomial.one() if self._capture_how else None
            relation = _Rows(RowLayout([]), [ExecRow((), EMPTY_LINEAGE, one)])
        else:
            relation = self._scan_rows(plan.base)
        for join_plan in plan.joins:
            right = self._scan_rows(join_plan.scan)
            if join_plan.kind == "CROSS":
                relation = self._cross_join(relation, right)
            else:
                relation = self._planned_join(relation, right, join_plan)
        if plan.where is not None:
            relation = self._row_filter(relation, plan.where, "WHERE")
        aggregates = self._collect_aggregates(statement)
        aggregate_slots: dict[str, int] = {}
        if statement.group_by or aggregates:
            relation, aggregate_slots = self._row_group(relation, statement, aggregates)
        if statement.having is not None:
            relation = self._row_filter(relation, statement.having, "HAVING", aggregate_slots)
        return relation, aggregate_slots

    def _scan_rows(self, scan) -> _Rows:
        scanned = self._scan(scan.table, scan.predicate)
        return _Rows(scanned.layout, scanned.rows)

    def _merge_join(self, left: ExecRow, right: ExecRow):
        lineage = left.lineage | right.lineage if self._capture_lineage else EMPTY_LINEAGE
        how = left.how * right.how if self._capture_how else None
        return lineage, how

    def _cross_join(self, left: _Rows, right: _Rows) -> _Rows:
        rows = []
        for left_row in left.rows:
            for right_row in right.rows:
                lineage, how = self._merge_join(left_row, right_row)
                rows.append(ExecRow(left_row.values + right_row.values, lineage, how))
        return _Rows(left.layout.concat(right.layout), rows)

    def _planned_join(self, left: _Rows, right: _Rows, join_plan: JoinPlan) -> _Rows:
        layout = left.layout.concat(right.layout)
        residual_fn = (
            _all_true([self._compile_one(join_plan.residual, layout)], "JOIN ON")
            if join_plan.residual is not None
            else None
        )
        is_left = join_plan.kind == "LEFT"
        null_right = (None,) * len(right.layout)
        rows: list[ExecRow] = []
        if not join_plan.is_hash_join:
            for left_row in left.rows:
                matched = False
                for right_row in right.rows:
                    values = left_row.values + right_row.values
                    if residual_fn(values):
                        rows.append(ExecRow(values, *self._merge_join(left_row, right_row)))
                        matched = True
                if is_left and not matched:
                    rows.append(
                        ExecRow(left_row.values + null_right, left_row.lineage, left_row.how)
                    )
            return _Rows(layout, rows)
        left_positions = [left.layout.resolve(ref.name, ref.table) for ref in join_plan.left_keys]
        right_positions = [
            right.layout.resolve(ref.name, ref.table) for ref in join_plan.right_keys
        ]
        if not left.rows or (not right.rows and not is_left):
            return _Rows(layout, rows)
        buckets: dict[tuple, list[ExecRow]] = {}
        for right_row in right.rows:
            key = tuple(right_row.values[position] for position in right_positions)
            if None not in key:
                buckets.setdefault(key, []).append(right_row)
        for left_row in left.rows:
            key = tuple(left_row.values[position] for position in left_positions)
            matched = False
            for right_row in buckets.get(key, []) if None not in key else []:
                values = left_row.values + right_row.values
                if residual_fn is not None and not residual_fn(values):
                    continue
                rows.append(ExecRow(values, *self._merge_join(left_row, right_row)))
                matched = True
            if is_left and not matched:
                rows.append(
                    ExecRow(left_row.values + null_right, left_row.lineage, left_row.how)
                )
        return _Rows(layout, rows)

    def _row_filter(self, relation: _Rows, predicate, clause, aggregate_slots=None) -> _Rows:
        keep = _all_true(
            self._compile_values(split_conjuncts(predicate), relation.layout, aggregate_slots),
            clause,
        )
        return _Rows(relation.layout, [row for row in relation.rows if keep(row.values)])

    def _row_group(self, relation: _Rows, statement, aggregates) -> tuple[_Rows, dict]:
        group_sqls = {expr.to_sql() for expr in statement.group_by}
        for item in statement.items:
            _validate_grouped(item.expression, group_sqls)
        if statement.having is not None:
            _validate_grouped(statement.having, group_sqls)
        for order_item in statement.order_by:
            _validate_grouped(order_item.expression, group_sqls, allow_bare_column=True)
        layout, members = relation.layout, relation.rows

        def evaluate(expression):
            fn = self._compile_one(expression, layout)
            return lambda rows: [fn(row.values) for row in rows]

        try:
            groups: dict[tuple, list] = {} if statement.group_by else {(): list(members)}
            keys = [evaluate(expression)(members) for expression in statement.group_by]
            for key, member in zip(zip(*keys), members):
                groups.setdefault(key, []).append(member)
            arguments = [
                None if isinstance(aggregate.argument, ast.Star) else evaluate(aggregate.argument)
                for aggregate in aggregates
            ]
            folds = [make_fold(*_spec(aggregate)) for aggregate in aggregates] if groups else []
            aggregated = [
                tuple(fold(g if arg is None else arg(g)) for fold, arg in zip(folds, arguments))
                for g in groups.values()
            ]
        except Exception as exc:  # noqa: BLE001 - replayed below
            self._row_replay_group(relation, statement, aggregates)
            raise exc
        aggregate_slots = {
            aggregate.to_sql(): len(layout) + position
            for position, aggregate in enumerate(aggregates)
        }
        extended = RowLayout(
            layout.columns
            + [BoundColumn(binding="#agg", name=f"agg_{i}") for i in range(len(aggregates))]
        )
        absent = (None,) * len(layout)
        return _Rows(
            extended,
            [
                ExecRow((g[0].values if g else absent) + values, *self._merge_union(g))
                for g, values in zip(groups.values(), aggregated)
            ],
        ), aggregate_slots

    def _row_replay_group(self, relation: _Rows, statement, aggregates) -> None:
        key_fns = self._compile_values(list(statement.group_by), relation.layout)
        argument_fns = [
            None if isinstance(aggregate.argument, ast.Star)
            else self._compile_one(aggregate.argument, relation.layout)
            for aggregate in aggregates
        ]
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(tuple(fn(row.values) for fn in key_fns), []).append(row.values)
        for group in groups.values():
            accumulators = [make_aggregator(*_spec(aggregate)) for aggregate in aggregates]
            for values in group:
                for argument_fn, accumulator in zip(argument_fns, accumulators):
                    accumulator.step(1 if argument_fn is None else argument_fn(values))

    def _reference_distinct(self, rows, item_fns):
        groups: dict[tuple, list[ExecRow]] = {}
        for row in rows:
            groups.setdefault(tuple(fn(row.values) for fn in item_fns), []).append(row)
        merged = [ExecRow(values, *self._merge_union(members)) for values, members in groups.items()]
        return [members[0] for members in groups.values()], merged


def _row_sort(rows, key_rows, order_by, key_fns):
    order = list(range(len(rows)))
    for order_item, key_fn in reversed(list(zip(order_by, key_fns))):
        values = [key_fn(row.values) for row in key_rows]
        keys = [(value is None, value) for value in values]
        try:
            order.sort(key=keys.__getitem__, reverse=order_item.descending)
        except TypeError as exc:
            kinds = {type(value).__name__ for value in values} - {"NoneType"}
            raise ExecutionError(
                f"cannot order {' against '.join(sorted(kinds))} "
                f"in ORDER BY {order_item.expression.to_sql()}"
            ) from exc
    return [rows[index] for index in order]

# -- random tables and joins ------------------------------------------------------------

#: Key columns: ``a.k`` INTEGER, ``b.k`` FLOAT and ``c.k`` BOOLEAN, so
#: ``1``, ``1.0`` and ``True`` meet in the hash buckets.
_TABLES = {
    "a": ("k INT, j INT, v FLOAT, s TEXT", st.tuples(
        st.sampled_from([0, 1, 2, None]),
        st.sampled_from([0, 1, 2, None]),
        st.sampled_from([-1.5, 0.5, 1.0, 2.0, None]),
        st.sampled_from(["x", "y", "", None]),
    )),
    "b": ("k FLOAT, j INT, w INT, t TEXT", st.tuples(
        st.sampled_from([0.0, 1.0, 2.0, None]),
        st.sampled_from([0, 1, 2, None]),
        st.sampled_from([0, 1, 2, 3, None]),
        st.sampled_from(["x", "z", None]),
    )),
    "c": ("k BOOLEAN, x INT", st.tuples(
        st.sampled_from([True, False, None]),
        st.sampled_from([0, 1, 2, None]),
    )),
}

#: ON conditions for ``a JOIN b``: single, composite, residual (one that
#: raises on text against a number, two that meet an error after a
#: conjunct that may be NULL, the second only then, one that is not
#: boolean) and equi-less ones.
_ON_B = [
    "a.k = b.k",
    "b.k = a.k AND a.j = b.j",
    "a.j = b.j AND b.w > a.j",
    "a.k = b.k AND a.v > 0.0 AND b.w >= 1",
    "a.k = b.k AND a.s < b.w",
    "a.j = b.j AND a.v > 1.0 AND a.s + 1 > 0",
    "a.k = b.k AND a.v > 100.0 AND a.s + 1 > 0",
    "a.j = b.j AND b.t",
    "b.w > a.j",
    "b.w > a.j OR a.s = b.t",
]
#: ON conditions for a third table, probing the pair memo on the left.
_ON_C = [
    "a.k = c.k",
    "b.j = c.x",
    "c.x = a.j AND c.x = b.j",
    "c.x = b.w AND c.k",
    "c.x > b.w",
]
_WHERE = [
    None, None, "b.w > 1", "a.j = b.j", "b.w IS NULL", "a.v + b.w > 2",
    "a.k >= 1 AND b.t IS NOT NULL", "a.s < b.w", "b.w",
]
_WHERE_C = ["c.x IS NOT NULL AND a.k >= 1", "c.x + b.j > 1"]


@st.composite
def _databases(draw) -> Database:
    db = Database(capture_how=True)
    for name, (columns, row) in _TABLES.items():
        db.execute(f"CREATE TABLE {name} ({columns})")
        for values in draw(st.lists(row, max_size=6)):
            db.catalog.table(name).insert(values)
    return db


@st.composite
def _joins(draw) -> ast.SelectStatement:
    kind_b = draw(st.sampled_from(["INNER", "LEFT", "CROSS"]))
    sql = "FROM a " + (
        "CROSS JOIN b" if kind_b == "CROSS" else f"{kind_b} JOIN b ON {draw(st.sampled_from(_ON_B))}"
    )
    three = draw(st.booleans())
    if three:
        kind_c = draw(st.sampled_from(["INNER", "LEFT", "CROSS"]))
        sql += " CROSS JOIN c" if kind_c == "CROSS" else (
            f" {kind_c} JOIN c ON {draw(st.sampled_from(_ON_C))}"
        )
    where = draw(st.sampled_from(_WHERE + (_WHERE_C if three else [])))
    if where is not None:
        sql += f" WHERE {where}"
    mode = draw(st.sampled_from(["plain", "plain", "grouped", "count", "distinct"]))
    if mode == "grouped":
        group = draw(st.sampled_from(["a.j", "b.t", "c.x" if three else "b.w"]))
        items = [group, "COUNT(*) AS n", "SUM(b.w) AS sw", "MAX(a.v) AS mv"]
        sql += f" GROUP BY {group}"
    elif mode == "count":
        items = ["COUNT(*) AS n", "SUM(a.j) AS sj"]
    else:
        pool = ["a.k", "a.j", "b.w", "b.t", "a.s", "a.j + b.w AS jw", "b.k"]
        pool += ["c.x", "c.k"] if three else []
        items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    select = "SELECT DISTINCT " if mode == "distinct" else "SELECT "
    if mode != "count" and draw(st.booleans()):
        outputs = [item.split(" AS ")[-1] for item in items]
        keys = draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=2, unique=True))
        sql += " ORDER BY " + ", ".join(
            f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}" for key in keys
        )
        limit = draw(st.sampled_from([None, 0, 1, 2, 5]))
        offset = draw(st.sampled_from([None, 0, 1, 3]))
        if limit is not None:
            sql += f" LIMIT {limit}"
            if offset is not None:
                sql += f" OFFSET {offset}"
    return parse_sql(select + ", ".join(items) + " " + sql)


def _outcome(executor: type[SelectExecutor], db: Database, statement, capture_how: bool):
    try:
        return executor(db.catalog, capture_how=capture_how).execute(statement)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)


class TestAgainstRowReference:
    @settings(max_examples=500, deadline=None)
    @given(db=_databases(), statement=_joins(), capture_how=st.booleans())
    def test_same_rows_provenance_and_first_error(self, db, statement, capture_how):
        expected = _outcome(RowReference, db, statement, capture_how)
        actual = _outcome(SelectExecutor, db, statement, capture_how)
        sql = statement.to_sql()
        if isinstance(expected, tuple):
            assert actual == expected, sql
            return
        assert not isinstance(actual, tuple), (sql, actual)
        assert actual.columns == expected.columns
        # repr tells True from 1 and 1 from 1.0, so value types must agree too.
        assert repr(actual.rows) == repr(expected.rows), sql
        assert actual.lineage == expected.lineage, sql
        assert actual.how == expected.how, sql
        assert actual.scanned_rows == expected.scanned_rows, sql

    @settings(max_examples=200, deadline=None)
    @given(db=_databases(), statement=_joins(), capture_how=st.booleans())
    def test_matches_sqlite(self, db, statement, capture_how):
        result = _outcome(SelectExecutor, db, statement, capture_how)
        if isinstance(result, tuple):
            return  # a mixed-type comparison or non-boolean filter (dialect 3, 7)
        assert_matches_sqlite(db, statement, result)


class TestJoinErrorOrder:
    """The first error of the row loops, where batch order would differ."""

    def _db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE a (k INT, j INT, v FLOAT, s TEXT)")
        db.execute("CREATE TABLE b (k FLOAT, j INT, w INT, t TEXT)")
        db.execute("INSERT INTO a VALUES (1, 1, NULL, 'x'), (1, 2, 5.0, NULL)")
        db.execute("INSERT INTO b VALUES (1.0, 1, 0, 'p'), (1.0, 2, 7, 'q')")
        return db

    def _both(self, sql: str):
        db = self._db()
        statement = parse_sql(sql)
        expected = _outcome(RowReference, db, statement, False)
        assert _outcome(SelectExecutor, db, statement, False) == expected
        return expected

    def test_a_conjunct_after_null_still_runs_in_on(self):
        # a.v is NULL on the only row where a.s is not: the ON residual is
        # one AND tree, which still evaluates a.s + 1 there.
        error = self._both("SELECT a.j FROM a JOIN b ON a.k = b.k AND a.v > 1.0 AND a.s + 1 > 0")
        assert error[0] is ExecutionError and "'+'" in error[1]

    def test_projection_raises_the_row_loops_first_error(self):
        # Row by row, the first pair's a.s + 1 raises before the second
        # pair's division by zero, which the first select item meets first.
        error = self._both("SELECT b.w / (b.w - 7), a.s + 1 FROM a JOIN b ON a.k = b.k ORDER BY a.j")
        assert "'+'" in error[1]

    def test_where_above_a_join_raises_the_row_loops_first_error(self):
        # Both conjuncts read both tables, so neither is pushed into a scan.
        error = self._both(
            "SELECT a.j FROM a JOIN b ON a.k = b.k "
            "WHERE b.w / (b.w - 7) >= a.j - 1 AND a.s + b.w > 0"
        )
        assert "'+'" in error[1]
