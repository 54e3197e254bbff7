"""Tests for the logical planner: pushdown, equi-keys, and parity.

The parity classes are the load-bearing guarantee of the planned
executor: a query must produce the rows stdlib sqlite3 produces, and its
where-lineage and how-polynomials must cite exactly the base rows sqlite3
derives each output row from ("provenance survives optimization").  The
hypothesis corpus at the bottom drives randomized queries through both
engines; see ``tests/sqlite_oracle.py`` for the invariants.
"""

from __future__ import annotations

from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb.catalog import Catalog
from repro.sqldb.executor import SelectExecutor
from repro.sqldb.parser import parse_sql
from repro.sqldb.planner import conjoin, plan_select, split_conjuncts
from tests.sqlite_oracle import assert_matches_sqlite, copy_to_sqlite


def _plan(db: Database, sql: str):
    statement = parse_sql(sql)
    return plan_select(statement, db.catalog)


def assert_parity(db: Database, sql: str, capture_how: bool = True):
    """Execute ``sql`` and check it against sqlite3; returns our result."""
    statement = parse_sql(sql)
    result = SelectExecutor(db.catalog, capture_how=capture_how).execute(statement)
    assert_matches_sqlite(db, statement, result)
    return result


class TestConjuncts:
    def test_split_flattens_nested_and(self):
        expr = parse_sql(
            "SELECT 1 FROM t WHERE (a = 1 AND b = 2) AND (c = 3 AND d = 4)"
        ).where
        parts = split_conjuncts(expr)
        assert [part.to_sql() for part in parts] == [
            "(a = 1)",
            "(b = 2)",
            "(c = 3)",
            "(d = 4)",
        ]

    def test_split_keeps_or_whole(self):
        expr = parse_sql("SELECT 1 FROM t WHERE a = 1 OR b = 2").where
        assert len(split_conjuncts(expr)) == 1

    def test_conjoin_round_trips(self):
        expr = parse_sql("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3").where
        rebuilt = conjoin(split_conjuncts(expr))
        assert rebuilt.to_sql() == expr.to_sql()

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None


class TestPushdown:
    def test_single_table_conjunct_pushed_into_scan(self, employees_db):
        plan = _plan(
            employees_db,
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "WHERE e.salary > 80 AND d.floor = 2",
        )
        assert plan.pushed_conjuncts == 2
        assert plan.base.predicate is not None
        assert plan.joins[0].scan.predicate is not None
        assert plan.where is None

    def test_multi_table_conjunct_stays_residual(self, employees_db):
        plan = _plan(
            employees_db,
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "WHERE e.salary > d.budget",
        )
        assert plan.pushed_conjuncts == 0
        assert plan.where is not None

    def test_subquery_conjunct_not_pushed(self, employees_db):
        plan = _plan(
            employees_db,
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "WHERE e.salary > (SELECT MIN(budget) FROM departments)",
        )
        assert plan.pushed_conjuncts == 0

    def test_left_join_right_side_not_pushed(self, employees_db):
        # Filtering the null-padded side early would let padded rows leak
        # past the WHERE clause.
        plan = _plan(
            employees_db,
            "SELECT e.name FROM employees e "
            "LEFT JOIN departments d ON e.department = d.department "
            "WHERE d.floor = 2",
        )
        assert plan.pushed_conjuncts == 0
        assert plan.joins[0].scan.predicate is None

    def test_left_join_left_side_is_pushed(self, employees_db):
        plan = _plan(
            employees_db,
            "SELECT e.name FROM employees e "
            "LEFT JOIN departments d ON e.department = d.department "
            "WHERE e.city = 'zurich'",
        )
        assert plan.pushed_conjuncts == 1
        assert plan.base.predicate is not None

    def test_unknown_column_left_residual_and_still_raises(self, employees_db):
        plan = _plan(
            employees_db,
            "SELECT name FROM employees WHERE nonexistent = 1",
        )
        assert plan.pushed_conjuncts == 0
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="nonexistent"):
            employees_db.execute("SELECT name FROM employees WHERE nonexistent = 1")

    def test_pushdown_with_nulls_matches_3vl(self, employees_db):
        # eve has NULL salary: the pushed predicate must keep only
        # exactly-TRUE rows, as a WHERE after the join would.
        assert_parity(
            employees_db,
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "WHERE e.salary > 75 ORDER BY e.name",
        )

    def test_pushdown_scan_counts_all_base_rows(self, employees_db):
        result = assert_parity(
            employees_db,
            "SELECT name FROM employees WHERE salary > 85",
        )
        assert result.scanned_rows == len(employees_db.catalog.table("employees"))
        assert result.scanned_rows == 5


class TestEquiJoinDetection:
    def test_multi_key_conjunction_becomes_composite_key(self):
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT, v TEXT)")
        db.execute("CREATE TABLE r (a INT, b INT, w TEXT)")
        plan = _plan(
            db,
            "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b",
        )
        join = plan.joins[0]
        assert join.is_hash_join
        assert len(join.left_keys) == 2
        assert join.residual is None

    def test_qualified_refs_in_nested_and_tree(self):
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT, c INT)")
        db.execute("CREATE TABLE r (a INT, b INT, c INT)")
        plan = _plan(
            db,
            "SELECT l.c FROM l JOIN r ON (l.a = r.a) AND (r.b = l.b AND l.c = r.c)",
        )
        join = plan.joins[0]
        assert len(join.left_keys) == 3
        assert join.residual is None

    def test_ambiguous_unqualified_ref_falls_to_residual(self):
        # Both tables have column `a`; an unqualified `a` cannot be a key.
        db = Database()
        db.execute("CREATE TABLE l (a INT)")
        db.execute("CREATE TABLE r (a INT, b INT)")
        plan = _plan(db, "SELECT 1 FROM l JOIN r ON a = r.b")
        join = plan.joins[0]
        assert not join.is_hash_join
        assert join.residual is not None

    def test_non_equi_conjunct_becomes_residual(self):
        db = Database()
        db.execute("CREATE TABLE l (a INT, x INT)")
        db.execute("CREATE TABLE r (a INT, y INT)")
        plan = _plan(db, "SELECT 1 FROM l JOIN r ON l.a = r.a AND l.x < r.y")
        join = plan.joins[0]
        assert join.is_hash_join
        assert len(join.left_keys) == 1
        assert join.residual is not None

    def test_same_side_equality_is_residual_not_key(self):
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (c INT)")
        plan = _plan(db, "SELECT 1 FROM l JOIN r ON l.a = l.b")
        join = plan.joins[0]
        assert not join.is_hash_join
        assert join.residual is not None

    def test_multi_key_join_executes_correctly(self):
        db = Database(capture_how=True)
        db.execute("CREATE TABLE l (a INT, b INT, v TEXT)")
        db.execute(
            "INSERT INTO l VALUES (1,1,'p'), (1,2,'q'), (2,1,'r'), (NULL,1,'s')"
        )
        db.execute("CREATE TABLE r (a INT, b INT, w TEXT)")
        db.execute(
            "INSERT INTO r VALUES (1,1,'P'), (1,1,'P2'), (2,1,'R'), (NULL,1,'S')"
        )
        result = db.execute(
            "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b"
        )
        # NULL keys never match — 's'/'S' rows drop out.
        assert sorted(result.rows) == [("p", "P"), ("p", "P2"), ("r", "R")]
        assert_parity(
            db, "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b"
        )

    def test_left_join_multi_key_pads_unmatched(self):
        db = Database(capture_how=True)
        db.execute("CREATE TABLE l (a INT, b INT, v TEXT)")
        db.execute("INSERT INTO l VALUES (1,1,'p'), (9,9,'z'), (NULL,1,'n')")
        db.execute("CREATE TABLE r (a INT, b INT, w TEXT)")
        db.execute("INSERT INTO r VALUES (1,1,'P')")
        sql = (
            "SELECT l.v, r.w FROM l LEFT JOIN r ON l.a = r.a AND l.b = r.b "
            "ORDER BY l.v"
        )
        result = db.execute(sql)
        assert list(result.rows) == [("n", None), ("p", "P"), ("z", None)]
        assert_parity(db, sql)


class TestLegacyJoinFastPaths:
    """Hash-join edge cases: NULL keys, unmatched LEFT rows, empty sides."""

    def test_left_join_hash_path_matches_nested_loop(self):
        db = Database(capture_how=True)
        db.execute("CREATE TABLE a (x INT)")
        db.execute("INSERT INTO a VALUES (1), (2), (NULL)")
        db.execute("CREATE TABLE b (x INT, y TEXT)")
        db.execute("INSERT INTO b VALUES (1, 'one'), (1, 'uno')")
        sql = "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.x"
        result = assert_parity(db, sql)
        assert result.rows == [(1, "one"), (1, "uno"), (2, None), (None, None)]

    def test_inner_join_empty_side_short_circuits(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("CREATE TABLE b (x INT)")
        sql = "SELECT a.x FROM a JOIN b ON a.x = b.x"
        assert_parity(db, sql)
        assert list(db.execute(sql).rows) == []


# -- randomized parity corpus ----------------------------------------------------


def _corpus_db() -> Database:
    db = Database(capture_how=True)
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT)")
    db.execute(
        "INSERT INTO t VALUES "
        "(1, 10, 'x'), (2, 20, 'y'), (3, NULL, 'x'), (NULL, 40, 'z'), "
        "(5, 50, NULL), (2, 20, 'x'), (1, NULL, 'y')"
    )
    db.execute("CREATE TABLE u (a INT, d INT)")
    db.execute("INSERT INTO u VALUES (1, 100), (2, 200), (2, 201), (NULL, 300)")
    return db


_CORPUS_DB = _corpus_db()

_COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_T_NUM_COLS = st.sampled_from(["t.a", "t.b"])
_LITERALS = st.sampled_from(["1", "2", "20", "NULL", "0"])


@st.composite
def _predicates(draw) -> str:
    """A small WHERE grammar over t (and optionally u) columns."""
    depth = draw(st.integers(min_value=0, max_value=2))
    if depth == 0:
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            return (
                f"{draw(_T_NUM_COLS)} {draw(_COMPARISONS)} {draw(_LITERALS)}"
            )
        if kind == 1:
            return f"{draw(_T_NUM_COLS)} IS {'NOT ' if draw(st.booleans()) else ''}NULL"
        if kind == 2:
            return f"t.c {draw(st.sampled_from(['=', '<>']))} 'x'"
        return f"{draw(_T_NUM_COLS)} IN (1, 2, NULL)"
    connector = draw(st.sampled_from(["AND", "OR"]))
    left = draw(_predicates())
    right = draw(_predicates())
    return f"({left}) {connector} ({right})"


#: Query shapes: (select + from, GROUP BY clause, ORDER BY key).
_SHAPES = [
    ("SELECT a, b, c FROM t", "", "a"),
    ("SELECT t.a, t.c, u.d FROM t JOIN u ON t.a = u.a", "", "t.a"),
    ("SELECT t.a, t.c, u.d FROM t LEFT JOIN u ON t.a = u.a", "", "t.a"),
    ("SELECT DISTINCT t.c FROM t", "", "t.c"),
    ("SELECT t.c, COUNT(*), SUM(t.b) FROM t", " GROUP BY t.c", "t.c"),
    (
        "SELECT t.c, COUNT(*), SUM(u.d) FROM t JOIN u ON t.a = u.a",
        " GROUP BY t.c",
        "t.c",
    ),
    ("SELECT COUNT(*), SUM(t.b) FROM t", "", None),
]


@st.composite
def _queries(draw) -> str:
    """Plain, join, DISTINCT and grouped queries over pushdown and equi-keys,
    ordered by name or position in either direction, with LIMIT/OFFSET."""
    select_from, group_by, order_key = draw(st.sampled_from(_SHAPES))
    where = draw(st.one_of(st.none(), _predicates()))
    sql = select_from
    if where is not None:
        sql += f" WHERE {where}"
    sql += group_by
    if order_key is not None and draw(st.booleans()):
        key = draw(st.sampled_from([order_key, "1"]))  # "1": the first column
        sql += f" ORDER BY {key}{draw(st.sampled_from(['', ' DESC']))}"
    limit = draw(st.sampled_from([None, None, 0, 1, 2, 5, 20]))
    if limit is not None:
        sql += f" LIMIT {limit}"
        offset = draw(st.sampled_from([None, 0, 1, 3, 20]))
        if offset is not None:
            sql += f" OFFSET {offset}"
    return sql


class TestDialectDifferences:
    def test_nulls_sort_last_where_sqlite_sorts_them_first(self):
        # Difference 4 of tests/sqlite_oracle.py.
        result = assert_parity(_CORPUS_DB, "SELECT a FROM t ORDER BY a")
        assert result.rows[-1] == (None,)
        with closing(copy_to_sqlite(_CORPUS_DB)) as connection:
            sqlite_rows = connection.execute("SELECT a FROM t ORDER BY a").fetchall()
        assert sqlite_rows[0] == (None,)


class TestRandomizedParity:
    @settings(max_examples=120, deadline=None)
    @given(sql=_queries())
    def test_optimizer_parity_on_corpus(self, sql):
        assert_parity(_CORPUS_DB, sql)

    @settings(max_examples=40, deadline=None)
    @given(sql=_queries())
    def test_parity_without_how_capture(self, sql):
        assert_parity(_CORPUS_DB, sql, capture_how=False)

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.sampled_from(["l.a = r.a", "l.b = r.b"]), min_size=1,
                      max_size=2, unique=True),
        left_rows=st.lists(
            st.tuples(st.integers(0, 3) | st.none(), st.integers(0, 2) | st.none()),
            min_size=0, max_size=8,
        ),
        right_rows=st.lists(
            st.tuples(st.integers(0, 3) | st.none(), st.integers(0, 2) | st.none()),
            min_size=0, max_size=8,
        ),
        left_outer=st.booleans(),
    )
    def test_randomized_join_parity(self, keys, left_rows, right_rows, left_outer):
        db = Database(capture_how=True)
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (a INT, b INT)")
        for a, b in left_rows:
            db.catalog.table("l").insert((a, b))
        for a, b in right_rows:
            db.catalog.table("r").insert((a, b))
        join_kind = "LEFT JOIN" if left_outer else "JOIN"
        sql = f"SELECT l.a, l.b, r.a, r.b FROM l {join_kind} r ON {' AND '.join(keys)}"
        assert_parity(db, sql)
