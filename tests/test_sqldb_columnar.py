"""Column-at-a-time execution against row-at-a-time references.

Scans, GROUP BY and the provenance verifier run expressions in their
batch form over positions into a table's column memo
(:func:`repro.sqldb.compile.compile_batch`) and aggregate value lists in
one fold (:func:`repro.sqldb.aggregates.make_fold`).  The references
here are the row closure mapped over the same rows, a fused row loop
over the conjuncts, and ``make_aggregator`` stepped value by value: the
batch forms must give the same values and raise the same first error.
Also pinned: WHERE/HAVING/ON values that are not booleans raise (dialect
difference 7 in ``tests/sqlite_oracle.py``), aggregate input errors are
``ExecutionError``s, the memo follows inserts and deletes, and rows are
built only where they are needed: for a GROUP BY's output groups, and
not for a join under COUNT(*), the rows an ORDER BY's LIMIT cuts or a
plain projection.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine, ReliabilityConfig
from repro.core.answer import AnswerKind
from repro.errors import ExecutionError
from repro.nl import SimulatedLLM
from repro.sqldb import Database, ast
from repro.sqldb import executor as executor_module
from repro.sqldb.aggregates import make_aggregator, make_fold
from repro.sqldb.compile import compile_batch, compile_expression
from repro.sqldb.executor import SelectExecutor
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.parser import parse_sql
from repro.sqldb.planner import split_conjuncts
from repro.sqldb.table import Table
from repro.sqldb.types import Column, ColumnType, Schema

# -- a table with typed, NULL-bearing and mixed-type columns -------------------------

_COLUMN_VALUES = {
    "a": st.one_of(st.none(), st.integers(-3, 3)),
    "b": st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 0.5, 2.0, float("nan")])),
    "c": st.one_of(st.none(), st.sampled_from(["", "x", "xy", "y"])),
    "d": st.one_of(st.none(), st.booleans()),
    # Stored behind the schema's back: a column no insert could produce.
    "m": st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["x", 1.5, True])),
}
_SCHEMA = Schema(
    [
        Column("a", ColumnType.INTEGER),
        Column("b", ColumnType.FLOAT),
        Column("c", ColumnType.TEXT),
        Column("d", ColumnType.BOOLEAN),
        Column("m", ColumnType.TEXT),
    ]
)
_ROWS = st.lists(st.tuples(*_COLUMN_VALUES.values()), max_size=12)


def _database(rows) -> Database:
    db = Database()
    table = Table(name="t", schema=_SCHEMA)
    for row_id, row in enumerate(rows):
        table._rows[row_id] = row
    table._next_row_id = table._version = len(rows)
    db.add_table(table)
    return db


_LITERALS = st.sampled_from(
    ["NULL", "TRUE", "FALSE", "0", "1", "-2", "0.5", "2.0", "'x'", "''", "'xy'"]
)
_LEAVES = st.one_of(st.sampled_from(list(_COLUMN_VALUES)), _LITERALS)


def _compound(inner, subqueries=True):
    pair = st.tuples(inner, inner)
    shapes = [
        st.tuples(inner, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _LEAVES).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(_LEAVES, st.sampled_from(["=", "<", ">="]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(pair, st.sampled_from(["AND", "OR", "+", "/", "||"])).map(
            lambda t: f"({t[0][0]} {t[1]} {t[0][1]})"
        ),
        inner.map(lambda e: f"(NOT {e})"),
        inner.map(lambda e: f"({e} IS NULL)"),
        st.tuples(inner, pair).map(lambda t: f"({t[0]} BETWEEN {t[1][0]} AND {t[1][1]})"),
        st.tuples(inner, pair).map(lambda t: f"({t[0]} IN ({t[1][0]}, {t[1][1]}))"),
        inner.map(lambda e: f"({e} LIKE 'x%')"),
        st.tuples(inner, pair).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1][0]} ELSE {t[1][1]} END"
        ),
        inner.map(lambda e: f"ABS({e})"),
    ]
    if subqueries:
        shapes.append(inner.map(lambda e: f"({e} > (SELECT MAX(a) FROM t))"))
    return st.one_of(*shapes)


_EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=4)


def _expression(sql: str) -> ast.Expression:
    return parse_sql(f"SELECT {sql} FROM t").items[0].expression


#: Pushable WHERE conjuncts: no subquery, at least one column (the planner
#: keeps any other conjunct above the scan).
_CONJUNCTS = st.recursive(
    _LEAVES, lambda inner: _compound(inner, subqueries=False), max_leaves=3
).filter(lambda sql: ast.collect_column_refs(_expression(sql)))


def _outcome(thunk):
    """``("ok", repr(value))`` or ``("raise", type, message)``: repr keeps
    ``1``, ``1.0`` and ``True`` apart."""
    try:
        return "ok", repr(thunk())
    except Exception as exc:  # noqa: BLE001
        return "raise", type(exc).__name__, str(exc)


def _compile_both(db: Database, expression: ast.Expression):
    table = db.catalog.table("t")
    layout = RowLayout([BoundColumn("t", column.name) for column in table.schema])
    memo = table.column_memo()

    def run_subquery(statement):
        return SelectExecutor(db.catalog, capture_lineage=False).execute(statement).rows

    row_fn = compile_expression(
        expression, layout, subquery_runner=run_subquery, subquery_cache={}
    )
    batch = compile_batch(
        expression, layout, memo, subquery_runner=run_subquery, subquery_cache={}
    )
    return memo, row_fn, batch


class TestBatchForm:
    @settings(max_examples=400, deadline=None)
    @given(rows=_ROWS, sql=_EXPRESSIONS, data=st.data())
    def test_batch_equals_the_mapped_row_closure(self, rows, sql, data):
        db = _database(rows)
        memo, row_fn, batch = _compile_both(db, _expression(sql))
        positions = data.draw(
            st.lists(st.integers(0, len(rows) - 1), max_size=8) if rows else st.just([])
        )
        expected = _outcome(lambda: [row_fn(memo.rows[p]) for p in positions])
        assert _outcome(lambda: batch(positions)) == expected, sql

    def test_kernels_and_fallbacks_agree_on_pinned_shapes(self):
        db = _database(
            [(1, 0.5, "x", True, "x"), (None, None, None, None, 2), (3, 2.0, "y", False, None)]
        )
        shapes = ["a > 1", "1 < a", "b = 0.5", "c = 'x'", "d = TRUE", "a = 'x'", "m = 2", "m > 'a'"]
        for sql in shapes:
            memo, row_fn, batch = _compile_both(db, _expression(sql))
            positions = [2, 0, 1]
            expected = _outcome(lambda: [row_fn(memo.rows[p]) for p in positions])
            assert _outcome(lambda: batch(positions)) == expected, sql


# -- WHERE: conjunct by conjunct, with the row loop's first error -------------------


def _row_loop_where(db: Database, where: ast.Expression):
    """The fused row loop: each row's conjuncts left to right, stop at the
    first one that is not TRUE; a value that is not a boolean raises."""
    table = db.catalog.table("t")
    layout = RowLayout([BoundColumn("t", column.name) for column in table.schema])
    fns = [compile_expression(conjunct, layout) for conjunct in split_conjuncts(where)]
    kept = []
    for row_id, row in table.rows_with_ids():
        for fn in fns:
            value = fn(row)
            if value is True:
                continue
            if value is False or value is None:
                break
            raise ExecutionError(f"WHERE requires a boolean, got {value!r}")
        else:
            kept.append(("t", row_id))
    return kept


class TestScanErrorOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=_ROWS,
        conjuncts=st.lists(_CONJUNCTS, min_size=1, max_size=3),
    )
    def test_scan_raises_what_the_row_loop_raises(self, rows, conjuncts):
        where = _expression(" AND ".join(f"({sql})" for sql in conjuncts))
        # An AND inside a conjunct splits; each part must read a column too.
        assume(all(ast.collect_column_refs(c) for c in split_conjuncts(where)))
        db = _database(rows)
        statement = ast.SelectStatement(
            items=(ast.SelectItem(ast.ColumnRef("a")),),
            from_table=ast.TableRef("t"),
            where=where,
        )
        expected = _outcome(lambda: _row_loop_where(db, where))
        actual = _outcome(
            lambda: [sorted(lineage)[0] for lineage in db.execute_select(statement).lineage]
        )
        assert actual == expected, statement.to_sql()

    def test_mixed_type_comparison_raises_on_the_same_rows(self):
        db = _database([(1, None, "x", None, None), (2, None, "y", None, None)])
        with pytest.raises(ExecutionError, match="cannot compare str with int"):
            db.execute("SELECT a FROM t WHERE c > 1")
        # Behind a conjunct that is FALSE on every row, it never runs.
        assert list(db.execute("SELECT a FROM t WHERE a > 5 AND c > 1").rows) == []
        assert list(db.execute("SELECT a FROM t WHERE a = 2 AND c = 'y'").rows) == [(2,)]

    def test_two_conjuncts_raising_on_different_rows_give_the_row_loops_error(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT)")
        db.execute("INSERT INTO t VALUES (0), (1)")
        # Row 0 passes the first conjunct and fails the second; the first
        # conjunct fails only on row 1.  The row loop reaches row 0 first.
        sql = (
            "SELECT k FROM t WHERE CASE WHEN k = 1 THEN 'x' ELSE 1 END = 1 "
            "AND 1 / k = 1"
        )
        with pytest.raises(ExecutionError, match="^division by zero$"):
            db.execute(sql)

    def test_group_replays_the_row_order_for_its_first_error(self):
        db = Database()
        db.execute("CREATE TABLE t (g INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 0), (1, 1)")
        # SUM fails on the second member, AVG on the first: stepping row by
        # row, the first member's AVG raises first.
        sql = (
            "SELECT g, SUM(CASE WHEN v = 1 THEN 'x' ELSE 1 END), "
            "AVG(CASE WHEN v = 0 THEN 'y' ELSE 1 END) FROM t GROUP BY g"
        )
        with pytest.raises(ExecutionError, match="AVG requires numeric input, got 'y'"):
            db.execute(sql)


# -- one fold per aggregate -------------------------------------------------------------

_FOLD_VALUES = st.lists(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-5, 5),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([1e16, -1e16, 10**400, 0.1, 0.2]),
        st.text(alphabet="ab", max_size=2),
    ),
    max_size=10,
)


def _stepped(name: str, values, star: bool, distinct: bool):
    aggregator = make_aggregator(name, star=star, distinct=distinct)
    for value in values:
        aggregator.step(value)
    return aggregator.finalize()


class TestFold:
    @settings(max_examples=500, deadline=None)
    @given(
        name=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX", "VARIANCE", "STDDEV"]),
        values=_FOLD_VALUES,
        star=st.booleans(),
        distinct=st.booleans(),
    )
    def test_fold_equals_stepping(self, name, values, star, distinct):
        expected = _outcome(lambda: _stepped(name, values, star, distinct))
        actual = _outcome(lambda: make_fold(name, star=star, distinct=distinct)(values))
        assert actual == expected

    @pytest.mark.parametrize("name", ["SUM", "AVG"])
    def test_float_sums_are_not_compensated(self, name):
        # builtin sum() gives 1.0 here on Python 3.12+; stepping gives 0.0.
        assert make_fold(name)([1e16, 1.0, -1e16]) == 0.0
        assert _stepped(name, [1e16, 1.0, -1e16], False, False) == 0.0

    def test_distinct_folds_in_first_seen_order(self):
        # Summed in set order this would be 0.1.
        values = [1e16, 0.1, None, 1e16, -1e16]
        assert make_fold("SUM", distinct=True)(values) == 0.0
        assert _stepped("SUM", values, False, True) == 0.0


class TestAggregateInputErrors:
    def _db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        return db

    @pytest.mark.parametrize("name", ["MIN", "MAX"])
    def test_min_max_over_text_and_numbers(self, name):
        sql = f"SELECT {name}(CASE WHEN x = 1 THEN 'a' ELSE 2 END) FROM t"
        with pytest.raises(ExecutionError, match=f"cannot compare int with str in {name}"):
            self._db().execute(sql)

    def test_avg_over_an_int_too_large_for_a_float(self):
        huge = "1" + "0" * 400
        with pytest.raises(ExecutionError, match="AVG overflows a float"):
            self._db().execute(f"SELECT AVG(x * {huge}) FROM t")

    @pytest.mark.parametrize(
        "gold_sql",
        [
            "SELECT MIN(CASE WHEN quantity = 1 THEN 'a' ELSE 2 END) FROM orders",
            f"SELECT AVG(quantity * 1{'0' * 400}) FROM orders",
            "SELECT order_id FROM orders WHERE quantity",
        ],
    )
    def test_ask_does_not_raise(self, ecommerce_domain, gold_sql):
        llm = SimulatedLLM(
            ecommerce_domain.registry.database.catalog, error_rate=0.0, sample_fidelity=1.0
        )
        engine = CDAEngine(
            ecommerce_domain.registry,
            ecommerce_domain.vocabulary,
            config=ReliabilityConfig(),
            llm=llm,
        )
        answer = engine.ask("zzz qqq blorp", llm_gold_sql=gold_sql)
        assert answer.kind is not AnswerKind.DATA


# -- non-boolean filters ------------------------------------------------------------------


class TestNonBooleanFilters:
    def _db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (k INT, q INT)")
        db.execute("INSERT INTO t VALUES (1, 3), (2, 0), (3, NULL)")
        db.execute("CREATE TABLE u (k INT, z INT)")
        db.execute("INSERT INTO u VALUES (1, 5), (2, 6)")
        return db

    def test_where(self):
        with pytest.raises(ExecutionError, match="^WHERE requires a boolean, got 3$"):
            self._db().execute("SELECT k FROM t WHERE q")

    def test_where_above_a_join(self):
        with pytest.raises(ExecutionError, match="WHERE requires a boolean, got 3"):
            self._db().execute("SELECT t.k FROM t JOIN u ON t.k = u.k WHERE t.q + u.z - 5")

    def test_having(self):
        with pytest.raises(ExecutionError, match="HAVING requires a boolean, got 1"):
            self._db().execute("SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*)")

    def test_join_residual(self):
        with pytest.raises(ExecutionError, match="JOIN ON requires a boolean, got 5"):
            self._db().execute("SELECT t.k FROM t JOIN u ON t.k = u.k AND u.z")

    def test_booleans_and_nulls_still_filter(self):
        db = self._db()
        assert list(db.execute("SELECT k FROM t WHERE q > 0").rows) == [(1,)]
        assert list(db.execute("SELECT k FROM t WHERE q IS NULL OR q > 0").rows) == [(1,), (3,)]


# -- the memo follows the table -----------------------------------------------------------


class TestColumnMemo:
    QUERIES = [
        "SELECT k, v FROM t WHERE k > 1",
        "SELECT v, COUNT(*), SUM(k) FROM t GROUP BY v",
        "SELECT MAX(k), AVG(k) FROM t WHERE v = 'x'",
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["x", "y"])), max_size=6),
        inserts=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["x", "y"])), max_size=3),
        deletes=st.lists(st.integers(0, 8), max_size=3),
    )
    def test_insert_and_delete_after_a_query(self, initial, inserts, deletes):
        db = Database()  # no query cache: every query reads the table
        db.execute("CREATE TABLE t (k INT, v TEXT)")
        table = db.catalog.table("t")
        for row in initial:
            table.insert(row)
        for sql in self.QUERIES:
            db.execute(sql)
        for row in inserts:
            table.insert(row)
        for row_id in set(deletes) & set(table.row_ids):
            table.delete_row(row_id)
        fresh = Database()
        fresh.execute("CREATE TABLE t (k INT, v TEXT)")
        for row in table.rows():
            fresh.catalog.table("t").insert(row)
        for sql in self.QUERIES:
            assert repr(db.execute(sql).rows) == repr(fresh.execute(sql).rows), sql
        assert table.column_values("k") == [row[0] for row in table.rows()]


class TestRowsBuilt:
    @staticmethod
    def _database(rows: int = 2000) -> Database:
        db = Database(capture_how=True)
        db.execute("CREATE TABLE t (g INT, v FLOAT)")
        db.execute("CREATE TABLE d (g INT, label TEXT)")
        table = db.catalog.table("t")
        for index in range(rows):
            table.insert((index % 7, index / 4))
        for group in range(7):
            db.catalog.table("d").insert((group, f"group {group}"))
        return db

    @staticmethod
    def _count_rows(monkeypatch) -> list:
        built = []

        class CountingRow(executor_module.ExecRow):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(executor_module, "ExecRow", CountingRow)
        return built

    def test_single_table_group_by_builds_rows_only_for_its_groups(self, monkeypatch):
        db = self._database()
        built = self._count_rows(monkeypatch)
        result = db.execute("SELECT g, SUM(v), COUNT(*) FROM t WHERE v > 10 GROUP BY g")
        assert len(result.rows) == 7
        assert len(built) == 7

    def test_join_count_builds_one_row(self, monkeypatch):
        db = self._database()
        built = self._count_rows(monkeypatch)
        result = db.execute("SELECT COUNT(*) FROM t INNER JOIN d ON t.g = d.g")
        assert result.rows == ((2000,),)
        assert len(result.lineage[0]) == 2007
        assert len(built) == 1

    def test_order_by_limit_builds_at_most_the_limit(self, monkeypatch):
        db = self._database()
        built = self._count_rows(monkeypatch)
        result = db.execute("SELECT g, v FROM t ORDER BY v DESC LIMIT 3")
        assert [row[1] for row in result.rows] == [499.75, 499.5, 499.25]
        assert len(built) <= 3

    def test_plain_projection_builds_none(self, monkeypatch):
        db = self._database(rows=1000)
        built = self._count_rows(monkeypatch)
        result = db.execute("SELECT v, g FROM t")
        assert len(result.rows) == 1000 and len(result.how) == 1000
        assert built == []
