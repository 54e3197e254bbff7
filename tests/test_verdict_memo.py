"""One provenance verdict per cache entry.

The verifier re-derives a cache-served answer from its cited rows once:
the report is kept on the cached result and read again only when the
re-execution step gets that very object back from the query cache, which
has just checked every table the query reads.  These tests pin when the
memo is read (a hit at unchanged tables) and when it is not (a write to
any read table, a tampered copy, another spelling, a cache-less database,
depths below provenance), that a memo'd verdict equals a fresh one on a
cache-less database, and that the cache tells a dropped and re-created
table from the one its entry was computed on.  The row verdicts a
re-execution-depth pass carries are kept under the same rule.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soundness import verifier as verifier_module
from repro.soundness.verifier import DEPTHS, AnswerVerifier
from repro.sqldb import Database
from repro.sqldb.cache import QueryCache
from repro.sqldb.parser import parse_sql
from repro.sqldb.table import Table
from tests.conftest import build_employees_db
from tests.test_lineage_index import _cache_db, _count_calls
from tests.test_verifier_reference import TABLES, single_table_queries

#: Queries over ``_cache_db`` that read table ``b`` only in an inner scope.
READS_BOTH = (
    "SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)",
    "SELECT x FROM a WHERE x = 1 UNION SELECT y FROM b",
)


def _cached_employees_db() -> Database:
    db = build_employees_db()
    db.cache = QueryCache()
    return db


class TestOneVerdictPerCacheEntry:
    @pytest.mark.parametrize("table", ["a", "b"])
    @pytest.mark.parametrize("sql", READS_BOTH)
    def test_a_hit_rederives_nothing_until_a_read_table_changes(self, monkeypatch, sql, table):
        db = _cache_db()
        verifier = AnswerVerifier(db)
        built = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        first = db.execute(sql)
        for _ in range(3):
            assert verifier.verify(db.execute(sql)).passed
        assert len(built) == 1
        assert first.provenance_report.passed
        db.execute(f"INSERT INTO {table} VALUES (2, 2)")
        second = db.execute(sql)
        assert second is not first
        for _ in range(3):
            assert verifier.verify(db.execute(sql)).passed
        assert len(built) == 2

    def test_a_stale_answer_with_the_same_rows_is_checked_in_full(self):
        db = _cache_db()
        verifier = AnswerVerifier(db)
        stale = db.execute("SELECT COUNT(*) FROM a WHERE x > 1")
        assert verifier.verify(stale).passed
        assert stale.provenance_report.passed
        db.catalog.table("a").delete_row(1)
        db.execute("INSERT INTO a VALUES (4, 4)")
        # Still two rows above 1, so re-execution passes; a[1] is gone.
        report = verifier.verify(stale)
        assert not report.passed
        assert report.issues[0].startswith("cited row a[1] is gone: ")
        assert stale.provenance_report.passed

    def test_another_spelling_is_checked_in_full(self, monkeypatch):
        db = _cache_db()
        verifier = AnswerVerifier(db)
        statement = parse_sql(READS_BOTH[0])
        assert verifier.verify(db.execute_select(statement)).passed
        built = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        respelled = db.execute_select(statement, sql=READS_BOTH[0].lower())
        assert verifier.verify(respelled).passed
        assert verifier.verify(respelled).passed
        assert len(built) == 2
        assert respelled.provenance_report is None

    def test_no_memo_without_a_cache(self, monkeypatch):
        db = build_employees_db()
        verifier = AnswerVerifier(db)
        built = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        result = db.execute("SELECT COUNT(*) FROM employees WHERE salary > 85")
        for _ in range(3):
            assert verifier.verify(result).passed
        assert len(built) == 3
        assert result.provenance_report is None

    @pytest.mark.parametrize("depth", ["static", "reexecution"])
    def test_no_memo_below_provenance_depth(self, depth):
        db = _cached_employees_db()
        result = db.execute("SELECT department, COUNT(*) FROM employees GROUP BY department")
        verifier = AnswerVerifier(db)
        for _ in range(2):
            report = verifier.verify(db.execute(result.sql), depth)
            assert report.passed and report.depth == depth
        assert result.provenance_report is None


class TestRowVerdictsAtReexecutionDepth:
    SQL = "SELECT department, COUNT(*) FROM employees WHERE salary > 75 GROUP BY department"

    def test_a_served_answer_builds_its_row_verdicts_once(self, monkeypatch):
        db = _cached_employees_db()
        verifier = AnswerVerifier(db)
        built = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        reports = [verifier.verify(db.execute(self.SQL), "reexecution") for _ in range(3)]
        assert all(report.passed for report in reports)
        assert reports[0].row_verdicts and len({report.row_verdicts for report in reports}) == 1
        assert len(built) == 1
        # A write the answer does not see: re-execution computes a new
        # result, whose verdicts are built again.
        db.execute("INSERT INTO employees VALUES (6, 'fay', 'sales', 10.0, 'bern')")
        report = verifier.verify(db.execute(self.SQL), "reexecution")
        assert report.passed and report.row_verdicts == reports[0].row_verdicts
        assert len(built) == 2

    def test_a_tampered_copy_builds_them_every_time(self, monkeypatch):
        db = _cached_employees_db()
        verifier = AnswerVerifier(db)
        built = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        copy = replace(db.execute(self.SQL))
        for _ in range(2):
            assert verifier.verify(copy, "reexecution").passed
        assert len(built) == 2
        assert copy.row_verdicts is None


def _cite(*row_ids: int):
    return lambda result: replace(
        result, lineage=(frozenset(("employees", row_id) for row_id in row_ids),)
    )


class TestTamperedCopiesOfAServedAnswer:
    SQL = "SELECT COUNT(*) FROM employees WHERE salary > 85"

    @pytest.mark.parametrize(
        "tamper, issue",
        [
            (lambda result: replace(result, rows=((3,),)), "re-execution produced different rows"),
            (_cite(0, 3), "cited row employees[3] does not satisfy the query's WHERE clause"),
            (_cite(0, 1, 99), "cited row employees[99] is gone: "),
        ],
        ids=["rows", "lineage", "missing_id"],
    )
    def test_fails_as_on_a_cacheless_database(self, tamper, issue):
        db = _cached_employees_db()
        verifier = AnswerVerifier(db)
        served = db.execute(self.SQL)
        assert verifier.verify(served).passed
        assert db.execute(self.SQL) is served
        assert served.provenance_report.passed
        tampered = tamper(served)
        assert tampered.provenance_report is None
        report = verifier.verify(tampered)
        assert not report.passed
        assert report.issues[0].startswith(issue)
        plain_db = build_employees_db()
        assert report == AnswerVerifier(plain_db).verify(tamper(plain_db.execute(self.SQL)))


#: ``(kind, table, seed)``: ``none`` asks again with no write.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["none", "insert", "delete"]),
        st.sampled_from(sorted(TABLES)),
        st.integers(0, 99),
    ),
    min_size=1,
    max_size=5,
)


def _edit(db: Database, kind: str, table_name: str, seed: int, serial: int) -> None:
    table = db.catalog.table(table_name)
    if kind == "delete" and table.row_ids:
        table.delete_row(table.row_ids[seed % len(table.row_ids)])
    elif kind == "insert" and table_name == "employees":
        department = ("engineering", "sales", "hr")[seed % 3]
        table.insert([100 + serial, "zed", department, 60.0 + seed % 50, "bern"])
    elif kind == "insert":
        table.insert([f"dept{serial}", 250.0 + seed * 3, 1 + seed % 4])


class TestMemoAgainstAFreshVerifier:
    @pytest.mark.parametrize("depth", DEPTHS)
    @settings(max_examples=30, deadline=None)
    @given(sql=single_table_queries(), edits=EDITS)
    def test_served_verdict_equals_a_cacheless_one(self, depth, sql, edits):
        """Every answer asked so far, stale ones included, verifies alike."""
        cached_db, plain_db = _cached_employees_db(), build_employees_db()
        verifier = AnswerVerifier(cached_db)
        answers = []
        for serial, edit in enumerate(edits):
            for db in (cached_db, plain_db):
                _edit(db, *edit, serial)
            answers.append((cached_db.execute(sql), plain_db.execute(sql)))
            for served, plain in answers:
                expected = AnswerVerifier(plain_db).verify(plain, depth)
                assert verifier.verify(served, depth) == expected
                assert verifier.verify(served, depth) == expected
        memoised = answers[-1][0].provenance_report is not None
        assert memoised == (depth == "provenance")


class TestRecreatedTable:
    SQL = "SELECT SUM(v) FROM t"

    @staticmethod
    def _create(db: Database, values: str) -> None:
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.execute(f"INSERT INTO t VALUES {values}")

    def test_is_not_served_the_dropped_tables_answer(self):
        db = Database(cache_size=16)
        self._create(db, "(1, 10), (2, 20)")
        old = db.execute(self.SQL)
        verifier = AnswerVerifier(db)
        assert verifier.verify(old).passed
        version = db.catalog.table("t").version
        db.catalog.drop_table("t")
        self._create(db, "(1, 1000), (2, 2000)")
        # Same name, same version: only the table object tells them apart.
        assert db.catalog.table("t").version == version
        new = db.execute(self.SQL)
        assert new is not old
        assert new.rows == ((3000,),)
        report = verifier.verify(old)
        assert not report.passed
        assert list(report.issues) == ["re-execution produced different rows"]
        assert verifier.verify(new).passed

    def test_tables_are_compared_by_identity(self, monkeypatch):
        """Equal tables are not the same table, and ``Table.__eq__``
        (which compares every row) is never called."""
        compared = _count_calls(monkeypatch, Table, "__eq__")
        db = Database(cache_size=16)
        self._create(db, "(1, 10), (2, 20)")
        old = db.execute(self.SQL)
        assert db.execute(self.SQL) is old
        db.catalog.drop_table("t")
        self._create(db, "(1, 10), (2, 20)")
        new = db.execute(self.SQL)
        assert new is not old
        assert new.rows == old.rows
        assert db.execute(self.SQL) is new
        assert compared == []
