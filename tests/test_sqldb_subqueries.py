"""Tests for subqueries and UNION in the SQL engine."""

import pytest

from repro.errors import ExecutionError
from repro.nl import SQLValidator
from repro.sqldb import Database
from repro.sqldb.parser import parse_sql


@pytest.fixture
def db():
    database = Database(capture_how=True)
    database.execute("CREATE TABLE emp (id INT PRIMARY KEY, dept TEXT, salary FLOAT)")
    database.execute(
        "INSERT INTO emp VALUES (1,'eng',100.0),(2,'eng',90.0),"
        "(3,'hr',80.0),(4,'hr',60.0)"
    )
    database.execute("CREATE TABLE dept (dept TEXT PRIMARY KEY, floor INT)")
    database.execute("INSERT INTO dept VALUES ('eng',3),('hr',2)")
    return database


class TestScalarSubquery:
    def test_in_where(self, db):
        rows = db.execute(
            "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) "
            "ORDER BY id"
        ).rows
        assert list(rows) == [(1,), (2,)]

    def test_in_select_list(self, db):
        rows = db.execute(
            "SELECT id, salary - (SELECT MIN(salary) FROM emp) AS above_min "
            "FROM emp ORDER BY id"
        ).rows
        assert rows[0] == (1, 40.0)

    def test_empty_result_is_null(self, db):
        rows = db.execute(
            "SELECT id FROM emp WHERE salary > (SELECT salary FROM emp WHERE id = 99)"
        ).rows
        assert list(rows) == []  # NULL comparison keeps nothing

    def test_multi_row_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT (SELECT salary FROM emp) FROM dept")

    def test_multi_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT (SELECT id, salary FROM emp WHERE id = 1) FROM dept")

    def test_usable_in_grouped_query(self, db):
        rows = db.execute(
            "SELECT dept, COUNT(*) FROM emp "
            "WHERE salary >= (SELECT AVG(salary) FROM emp) "
            "GROUP BY dept ORDER BY dept"
        ).rows
        assert list(rows) == [("eng", 2)]


class TestInSubquery:
    def test_membership(self, db):
        rows = db.execute(
            "SELECT id FROM emp WHERE dept IN "
            "(SELECT dept FROM dept WHERE floor > 2) ORDER BY id"
        ).rows
        assert list(rows) == [(1,), (2,)]

    def test_not_in(self, db):
        rows = db.execute(
            "SELECT id FROM emp WHERE dept NOT IN "
            "(SELECT dept FROM dept WHERE floor > 2) ORDER BY id"
        ).rows
        assert list(rows) == [(3,), (4,)]

    def test_null_in_subquery_gives_unknown(self, db):
        db.execute("CREATE TABLE n (v TEXT)")
        db.execute("INSERT INTO n VALUES ('eng'), (NULL)")
        rows = db.execute(
            "SELECT id FROM emp WHERE dept NOT IN (SELECT v FROM n)"
        ).rows
        assert list(rows) == []  # NULL in the list makes NOT IN unknown

    def test_multi_column_subquery_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "SELECT id FROM emp WHERE dept IN (SELECT dept, floor FROM dept)"
            )

    def test_round_trip(self, db):
        sql = (
            "SELECT id FROM emp WHERE dept IN "
            "(SELECT dept FROM dept WHERE (floor > 2))"
        )
        once = parse_sql(sql).to_sql()
        assert parse_sql(once).to_sql() == once


class TestUnion:
    def test_union_dedupes(self, db):
        rows = db.execute("SELECT dept FROM emp UNION SELECT dept FROM dept").rows
        assert sorted(rows) == [("eng",), ("hr",)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.execute(
            "SELECT dept FROM emp UNION ALL SELECT dept FROM dept"
        ).rows
        assert len(rows) == 6

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT id, dept FROM emp UNION SELECT dept FROM dept")

    def test_union_merges_lineage(self, db):
        result = db.execute(
            "SELECT dept FROM emp WHERE id = 1 "
            "UNION SELECT dept FROM dept WHERE floor = 3"
        )
        assert list(result.rows) == [("eng",)]
        assert result.lineage[0] == frozenset({("emp", 0), ("dept", 0)})
        assert str(result.how[0]) == "dept:0 + emp:0"

    def test_three_way_union(self, db):
        rows = db.execute(
            "SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3"
        ).rows
        assert list(rows) == [(1,), (2,), (3,)]

    def test_union_round_trip(self, db):
        sql = "SELECT id FROM emp UNION ALL SELECT floor FROM dept"
        once = parse_sql(sql).to_sql()
        assert parse_sql(once).to_sql() == once


class TestValidatorWithSubqueries:
    def test_valid_subquery_passes(self, db):
        validator = SQLValidator(db.catalog)
        report = validator.validate(
            "SELECT id FROM emp WHERE dept IN (SELECT dept FROM dept)"
        )
        assert report.valid

    def test_invalid_inner_column_caught(self, db):
        validator = SQLValidator(db.catalog)
        report = validator.validate(
            "SELECT id FROM emp WHERE dept IN (SELECT bogus FROM dept)"
        )
        assert not report.valid

    def test_invalid_inner_table_caught(self, db):
        validator = SQLValidator(db.catalog)
        report = validator.validate(
            "SELECT id FROM emp WHERE salary > (SELECT AVG(x) FROM nope)"
        )
        assert not report.valid

    def test_union_arms_validated(self, db):
        validator = SQLValidator(db.catalog)
        assert validator.validate(
            "SELECT id FROM emp UNION ALL SELECT floor FROM dept"
        ).valid
        assert not validator.validate(
            "SELECT id FROM emp UNION ALL SELECT bogus FROM dept"
        ).valid

    def test_union_arity_checked(self, db):
        validator = SQLValidator(db.catalog)
        report = validator.validate(
            "SELECT id, dept FROM emp UNION SELECT dept FROM dept"
        )
        assert not report.valid
