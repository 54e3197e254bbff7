"""Tests for query execution: semantics and provenance capture."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb import Database


class TestSelection:
    def test_where_filters(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE salary > 85"
        ).rows
        assert sorted(rows) == [("ann",), ("bob",)]

    def test_null_rows_excluded_by_comparison(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE salary < 1000"
        ).rows
        assert ("eve",) not in rows

    def test_is_null_filter(self, employees_db):
        result = employees_db.execute(
            "SELECT name FROM employees WHERE salary IS NULL"
        )
        assert list(result.rows) == [("eve",)]

    def test_projection_expression(self, employees_db):
        result = employees_db.execute(
            "SELECT name, salary * 2 AS double_pay FROM employees WHERE id = 1"
        )
        assert list(result.columns) == ["name", "double_pay"]
        assert list(result.rows) == [("ann", 200.0)]

    def test_select_without_from(self, employees_db):
        assert employees_db.execute("SELECT 1 + 1").scalar() == 2

    def test_star_expansion(self, employees_db):
        result = employees_db.execute("SELECT * FROM departments")
        assert list(result.columns) == ["department", "budget", "floor"]
        assert len(result.rows) == 2


class TestJoins:
    def test_inner_join(self, employees_db):
        result = employees_db.execute(
            "SELECT e.name, d.floor FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "WHERE e.city = 'zurich' ORDER BY e.name"
        )
        assert list(result.rows) == [("ann", 3), ("cat", 2), ("eve", 2)]

    def test_left_join_keeps_unmatched(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("CREATE TABLE b (x INT, y TEXT)")
        db.execute("INSERT INTO b VALUES (1, 'one')")
        result = db.execute(
            "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.x ORDER BY a.x"
        )
        assert list(result.rows) == [(1, "one"), (2, None)]

    def test_cross_join_cardinality(self, employees_db):
        result = employees_db.execute(
            "SELECT COUNT(*) FROM employees CROSS JOIN departments"
        )
        assert result.scalar() == 10

    def test_hash_join_matches_nested_loop(self, employees_db):
        # Equi-join uses the hash path; a non-equi condition forces the
        # nested loop.  Both must agree on equivalent predicates.
        fast = employees_db.execute(
            "SELECT e.id FROM employees e "
            "JOIN departments d ON e.department = d.department"
        )
        slow = employees_db.execute(
            "SELECT e.id FROM employees e "
            "JOIN departments d ON e.department = d.department AND 1 = 1"
        )
        assert sorted(fast.rows) == sorted(slow.rows)

    def test_join_null_keys_never_match(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("INSERT INTO a VALUES (NULL), (1)")
        db.execute("CREATE TABLE b (x INT)")
        db.execute("INSERT INTO b VALUES (NULL), (1)")
        result = db.execute("SELECT COUNT(*) FROM a JOIN b ON a.x = b.x")
        assert result.scalar() == 1


class TestAggregation:
    def test_global_aggregate(self, employees_db):
        assert employees_db.execute("SELECT COUNT(*) FROM employees").scalar() == 5

    def test_avg_skips_nulls(self, employees_db):
        assert employees_db.execute(
            "SELECT AVG(salary) FROM employees"
        ).scalar() == pytest.approx(85.0)

    def test_group_by(self, employees_db):
        result = employees_db.execute(
            "SELECT department, COUNT(*) AS n FROM employees "
            "GROUP BY department ORDER BY department"
        )
        assert list(result.rows) == [("engineering", 2), ("sales", 3)]

    def test_having(self, employees_db):
        result = employees_db.execute(
            "SELECT department FROM employees GROUP BY department "
            "HAVING COUNT(*) > 2"
        )
        assert list(result.rows) == [("sales",)]

    def test_having_without_group_rejected(self, employees_db):
        with pytest.raises(ExecutionError):
            employees_db.execute("SELECT name FROM employees HAVING name = 'x'")

    def test_empty_input_global_aggregates(self, employees_db):
        result = employees_db.execute(
            "SELECT COUNT(*), SUM(salary) FROM employees WHERE id > 100"
        )
        assert list(result.rows) == [(0, None)]

    def test_non_grouped_column_rejected(self, employees_db):
        with pytest.raises(ExecutionError):
            employees_db.execute(
                "SELECT name, COUNT(*) FROM employees GROUP BY department"
            )

    def test_unknown_expression_node_rejected_in_grouped_check(self):
        # The strict GROUP BY check fails closed: a node kind it does not
        # know (here one hiding a bare column in a list) is an error, not
        # a pass that would let a representative value through.
        from dataclasses import dataclass

        from repro.sqldb import ast
        from repro.sqldb.executor import _validate_grouped

        @dataclass(frozen=True)
        class Wrapped(ast.Expression):
            parts: list

            def to_sql(self) -> str:
                return "WRAPPED(...)"

        with pytest.raises(ExecutionError, match="cannot validate grouped expression"):
            _validate_grouped(Wrapped([ast.ColumnRef(name="name")]), {"department"})

    def test_grouped_expression_allowed(self, employees_db):
        result = employees_db.execute(
            "SELECT UPPER(department), COUNT(*) FROM employees "
            "GROUP BY department ORDER BY department"
        )
        assert result.rows[0][0] == "ENGINEERING"

    def test_count_distinct(self, employees_db):
        assert employees_db.execute(
            "SELECT COUNT(DISTINCT city) FROM employees"
        ).scalar() == 3

    def test_order_by_aggregate_alias(self, employees_db):
        result = employees_db.execute(
            "SELECT department, SUM(salary) AS total FROM employees "
            "GROUP BY department ORDER BY total DESC"
        )
        assert result.rows[0][0] == "engineering"


class TestOrderingAndLimits:
    def test_order_asc_desc(self, employees_db):
        asc = employees_db.execute(
            "SELECT id FROM employees WHERE salary IS NOT NULL ORDER BY salary ASC"
        ).rows
        desc = employees_db.execute(
            "SELECT id FROM employees WHERE salary IS NOT NULL ORDER BY salary DESC"
        ).rows
        assert asc == tuple(reversed(desc))

    def test_nulls_sort_last_ascending(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees ORDER BY salary ASC"
        ).rows
        assert rows[-1] == ("eve",)

    def test_multi_key_order(self, employees_db):
        rows = employees_db.execute(
            "SELECT city, name FROM employees ORDER BY city ASC, name DESC"
        ).rows
        assert rows[0][0] == "bern"
        zurich_names = [name for city, name in rows if city == "zurich"]
        assert zurich_names == sorted(zurich_names, reverse=True)

    def test_limit_offset(self, employees_db):
        rows = employees_db.execute(
            "SELECT id FROM employees ORDER BY id LIMIT 2 OFFSET 1"
        ).rows
        assert list(rows) == [(2,), (3,)]

    def test_distinct(self, employees_db):
        rows = employees_db.execute(
            "SELECT DISTINCT city FROM employees ORDER BY city"
        ).rows
        assert list(rows) == [("bern",), ("geneva",), ("zurich",)]

    def test_order_by_unselected_column(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE salary IS NOT NULL ORDER BY salary DESC LIMIT 1"
        ).rows
        assert list(rows) == [("ann",)]


class TestProvenance:
    def test_scan_lineage_is_singleton(self, employees_db):
        result = employees_db.execute("SELECT name FROM employees WHERE id = 1")
        assert list(result.lineage) == [frozenset({("employees", 0)})]

    def test_join_lineage_unions_sides(self, employees_db):
        result = employees_db.execute(
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department WHERE e.id = 1"
        )
        assert result.lineage[0] == frozenset(
            {("employees", 0), ("departments", 0)}
        )

    def test_group_lineage_unions_members(self, employees_db):
        result = employees_db.execute(
            "SELECT department, COUNT(*) FROM employees "
            "GROUP BY department ORDER BY department"
        )
        engineering = result.lineage[0]
        assert engineering == frozenset({("employees", 0), ("employees", 1)})

    def test_distinct_merges_lineage(self, employees_db):
        result = employees_db.execute(
            "SELECT DISTINCT department FROM employees ORDER BY department"
        )
        sales = result.lineage[1]
        assert sales == frozenset(
            {("employees", 2), ("employees", 3), ("employees", 4)}
        )

    def test_how_provenance_join_is_product(self, employees_db):
        result = employees_db.execute(
            "SELECT e.name FROM employees e "
            "JOIN departments d ON e.department = d.department WHERE e.id = 1"
        )
        assert str(result.how[0]) == "departments:0*employees:0"

    def test_how_provenance_group_is_sum(self, employees_db):
        result = employees_db.execute(
            "SELECT department, COUNT(*) FROM employees "
            "GROUP BY department ORDER BY department"
        )
        assert str(result.how[0]) == "employees:0 + employees:1"

    def test_lineage_capture_can_be_disabled(self):
        db = Database(capture_lineage=False)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        result = db.execute("SELECT x FROM t")
        assert list(result.lineage) == [frozenset()]

    def test_scanned_rows_counted(self, employees_db):
        result = employees_db.execute("SELECT COUNT(*) FROM employees")
        assert result.scanned_rows == 5
