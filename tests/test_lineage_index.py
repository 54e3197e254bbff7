"""One lineage index per answer, shared by every provenance consumer.

``QueryResult.lineage_index`` is built once per (immutable) result and
read by the verifier (existence, WHERE and aggregate re-derivation, row
verdicts), by the lazily rendered explanation and by the tracker capture.
The query cache hands out the result it computed, so the index is built
once per cache entry.  These tests pin the sharing (how many passes a
turn makes, which objects a hit shares), that a tampered answer is a new
object the verifier catches, and that the lazy explanation and the
report's row verdicts equal the eager formulas and the per-atom
reference.  The query cache's table versions
and the where-to analysis ride on the same statement walk, so they are
tested here too.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings

from repro.core import CDAEngine, ReliabilityConfig
from repro.core.answer import AnswerKind
from repro.datasets.registry import DataSourceRegistry
from repro.nl import SimulatedLLM
from repro.provenance.explanation import (
    Explanation,
    ExplanationBuilder,
    check_invertibility,
    check_losslessness,
)
from repro.provenance.semiring import Polynomial
from repro.soundness import verifier as verifier_module
from repro.soundness.verifier import DEPTHS, AnswerVerifier
from repro.sqldb import Database
from repro.sqldb.cache import QueryCache
from repro.sqldb.database import LineageIndex
from repro.sqldb.parser import parse_sql
from tests.conftest import build_employees_db
from tests.test_verifier_reference import reference_verify_rows, single_table_queries

QUESTIONS = (
    "how many employees are in engineering",
    "how many employees per department",
    "list employees in zurich",
)


def _engine(**database_options) -> CDAEngine:
    database = build_employees_db()
    for name, value in database_options.items():
        setattr(database, name, value)
    return CDAEngine(DataSourceRegistry(database))


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePassPerTurn:
    def test_one_cited_rows_per_verified_turn_and_no_verify_rows(self, monkeypatch):
        engine = _engine()
        assert engine.config.verification_depth == "provenance"
        cited = _count_calls(monkeypatch, verifier_module._CitedRows, "__init__")
        wrapper = _count_calls(monkeypatch, verifier_module, "verify_rows")
        answers = [engine.ask(question) for question in QUESTIONS]
        assert all(answer.kind is AnswerKind.DATA for answer in answers)
        assert all(answer.verification.passed for answer in answers)
        assert len(cited) == len(answers)
        assert wrapper == []
        # The grouped answer still carries its part scores.
        grouped = answers[1]
        assert grouped.metadata["row_verification"] == [True] * len(grouped.rows)

    @pytest.mark.parametrize("depth", ["static", "reexecution"])
    def test_shallower_depths_keep_row_verification(self, depth):
        engine = _engine()
        engine.config.verification_depth = depth
        answer = engine.ask("how many employees per department")
        assert answer.verification.depth == depth
        assert answer.metadata["row_verification"] == [True] * len(answer.rows)

    def test_unread_explanation_renders_nothing(self, monkeypatch):
        engine = _engine(capture_how=True)
        rendered = _count_calls(monkeypatch, Polynomial, "__str__")
        sorted_atoms = _count_calls(monkeypatch, LineageIndex, "sorted_atoms")
        answers = [engine.ask(question) for question in QUESTIONS]
        assert all(answer.explanation is not None for answer in answers)
        assert rendered == [] and sorted_atoms == []
        # Reading a field renders it then, once.
        how = answers[-1].explanation.how
        assert how and len(rendered) == len(how)
        assert answers[-1].explanation.how is how
        assert answers[-1].explanation.source_rows
        assert len(sorted_atoms) == 1


class TestMemoSoundness:
    SQL = "SELECT name FROM employees WHERE city = 'zurich'"

    @pytest.mark.parametrize(
        "atom, issue",
        [
            (
                ("departments", 0),
                "cited row departments[0] is not from the queried table employees",
            ),
            (("employees", 99), "cited row employees[99] is gone"),
        ],
    )
    @pytest.mark.parametrize("how", ["in_place", "rebind"])
    def test_tamper_after_verification_is_caught(self, atom, issue, how):
        db = build_employees_db()
        result = db.execute(self.SQL)
        verifier = AnswerVerifier(db)
        assert verifier.verify(result).passed
        tampered = result.lineage[0] | {atom}
        if how == "in_place":
            with pytest.raises(TypeError):
                result.lineage[0] = tampered
            assert atom not in result.all_source_rows()
            assert verifier.verify(result).passed
            return
        result = replace(result, lineage=(tampered, *result.lineage[1:]))
        report = verifier.verify(result)
        assert not report.passed
        assert report.row_verdicts is None
        assert any(found.startswith(issue) for found in report.issues)
        assert atom in result.all_source_rows()


class TestOneResultPerCacheEntry:
    SQL = "SELECT x FROM a WHERE x > 1"

    def test_results_are_frozen_tuples(self):
        db = _cache_db()
        db.capture_how = True
        result = db.execute(self.SQL)
        for name in ("columns", "rows", "sql", "statement", "lineage", "how"):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, getattr(result, name))
        for container in (result.columns, result.rows, result.lineage, result.how):
            assert type(container) is tuple
        assert result.rows == ((2,), (3,))

    def test_a_hit_is_the_object_of_the_miss(self, monkeypatch):
        db = _cache_db()
        built = _count_calls(monkeypatch, LineageIndex, "__init__")
        first = db.execute(self.SQL)
        verifier = AnswerVerifier(db)
        for _ in range(3):
            again = db.execute(self.SQL)
            assert again is first
            assert verifier.verify(again).passed
            assert again.lineage_index is first.lineage_index
        assert db.cache.stats.hits == 3 + 3  # three executes, three re-executions
        assert len(built) == 1

    def test_repeated_asks_build_one_index_per_cache_entry(self, monkeypatch):
        engine = _engine()
        built = _count_calls(monkeypatch, LineageIndex, "__init__")
        answers = [engine.ask(question) for question in QUESTIONS * 3]
        assert all(answer.kind is AnswerKind.DATA for answer in answers)
        assert len(built) == len(QUESTIONS)

    def test_each_caller_gets_its_own_sql_text(self):
        db = _cache_db()
        statement = parse_sql(self.SQL)
        spellings = ["select x from a where x > 1", "SELECT x FROM a WHERE (x > 1)", None]
        results = [db.execute_select(statement, sql=text) for text in spellings]
        results.append(db.execute("select  x  from a where x > 1"))
        assert [result.sql for result in results] == [
            "select x from a where x > 1",
            "SELECT x FROM a WHERE (x > 1)",
            statement.to_sql(),
            "select  x  from a where x > 1",
        ]
        assert db.cache.stats.hits == 3
        first = results[0]
        for result in results[1:]:
            assert result.rows is first.rows
            assert result.lineage is first.lineage
            assert result.lineage_index is first.lineage_index
        assert db.execute_select(statement, sql=spellings[0]) is first

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)",
            "SELECT x FROM a WHERE x = 1 UNION SELECT y FROM b",
        ],
    )
    def test_a_write_to_an_inner_table_makes_a_new_result(self, sql):
        db = _cache_db()
        first = db.execute(sql)
        index = first.lineage_index
        assert db.execute(sql) is first
        db.execute("INSERT INTO b VALUES (2, 2)")
        second = db.execute(sql)
        assert second is not first
        assert second.lineage_index is not index
        assert db.execute(sql) is second

    @pytest.mark.parametrize("depth", DEPTHS)
    @settings(max_examples=40, deadline=None)
    @given(sql=single_table_queries())
    def test_cache_served_result_verifies_like_an_uncached_one(self, depth, sql):
        cached_db = build_employees_db()
        cached_db.cache = QueryCache()
        cached_db.execute(sql)
        served = cached_db.execute(sql)
        assert cached_db.cache.stats.hits == 1
        plain_db = build_employees_db()
        expected = AnswerVerifier(plain_db).verify(plain_db.execute(sql), depth)
        assert AnswerVerifier(cached_db).verify(served, depth) == expected


class TestAgainstEagerFormulas:
    @pytest.mark.parametrize("capture_how", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(sql=single_table_queries())
    def test_lazy_explanation_and_report_verdicts(self, capture_how, sql):
        db = build_employees_db()
        db.capture_how = capture_how
        result = db.execute(sql)
        explanation = ExplanationBuilder(db).from_query_result(result)
        source_rows = sorted(frozenset().union(*result.lineage))
        assert explanation.source_rows == source_rows
        assert explanation.source_tables == sorted({table for table, _ in source_rows})
        assert explanation.how == ([str(p) for p in result.how] if capture_how else [])
        assert check_losslessness(explanation, result) == []
        assert check_invertibility(explanation, db) == []
        expected = reference_verify_rows(db, result)
        for depth in DEPTHS:
            report = AnswerVerifier(db).verify(result, depth)
            assert report.passed, report.issues
            assert report.row_verdicts == expected

    def test_keyword_construction_and_equality(self, employees_db):
        result = employees_db.execute(
            "SELECT department, SUM(salary) FROM employees GROUP BY department"
        )
        lazy = ExplanationBuilder(employees_db).from_query_result(result, question="q")
        eager = Explanation(
            question="q",
            sql=result.sql,
            columns=list(result.columns),
            rows=list(result.rows),
            source_rows=sorted(result.all_source_rows()),
            source_tables=["employees"],
            how=[str(p) for p in result.how],
        )
        assert repr(lazy) == repr(eager)
        assert lazy == eager


def _cache_db() -> Database:
    db = Database(cache_size=16)
    db.execute("CREATE TABLE a (id INT, x INT)")
    db.execute("CREATE TABLE b (id INT, y INT)")
    db.execute("INSERT INTO a VALUES (1, 1), (2, 2), (3, 3)")
    db.execute("INSERT INTO b VALUES (1, 1)")
    return db


class TestCacheSeesEveryReadTable:
    @pytest.mark.parametrize(
        "sql, before, after",
        [
            ("SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)", [(1,)], [(2,)]),
            ("SELECT x FROM a WHERE x = 1 UNION SELECT y FROM b", [(1,)], [(1,), (2,), (9,)]),
            ("SELECT (SELECT MAX(y) FROM b) FROM a WHERE x = 1", [(1,)], [(9,)]),
            (
                "SELECT x FROM a GROUP BY x HAVING x < (SELECT COUNT(*) FROM b) ORDER BY x",
                [],
                [(1,), (2,)],
            ),
        ],
    )
    def test_insert_into_an_inner_table_invalidates(self, sql, before, after):
        db = _cache_db()
        stale = db.execute(sql)
        assert sorted(stale.rows) == before
        db.execute("INSERT INTO b VALUES (2, 2), (3, 9)")
        cached = db.execute(sql)
        db.cache.clear()
        assert sorted(cached.rows) == sorted(db.execute(sql).rows) == after
        # Re-execution no longer serves the stale answer back to itself.
        report = AnswerVerifier(db).verify(stale, "provenance")
        assert not report.passed
        assert "re-execution produced different rows" in report.issues

    def test_unchanged_tables_still_hit(self):
        db = _cache_db()
        sql = "SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)"
        db.execute(sql)
        db.execute(sql)
        assert db.cache.stats.hits == 1

    def test_a_subquery_over_a_missing_table_is_not_cached(self):
        db = _cache_db()
        db.execute("CREATE TABLE empty (v INT)")
        sql = "SELECT v FROM empty WHERE v IN (SELECT z FROM nosuch)"
        assert list(db.execute(sql).rows) == []
        assert len(db.cache) == 0


class TestWhereToWithoutCitedRows:
    def test_answers_citing_no_rows_still_rest_on_their_table(self):
        engine = _engine()
        questions = [
            "how many employees have salary above 100",
            "how many employees have salary above 100",
            "list employees with salary over 500",
        ]
        answers = [engine.ask(question) for question in questions]
        assert [answer.kind for answer in answers] == [AnswerKind.DATA] * 3
        assert answers[0].rows == answers[1].rows == [(0,)]
        assert answers[2].rows == []
        assert engine.impact_of_source("employees") == [
            "answer:0",
            "answer:1",
            "answer:2",
        ]
        assert engine.impact_of_source("departments") == []

    def test_subquery_tables_are_inputs_under_their_registered_names(self):
        db = build_employees_db()
        db.execute("CREATE TABLE Offices (city TEXT)")
        db.execute("INSERT INTO Offices VALUES ('geneva')")
        llm = SimulatedLLM(db.catalog, error_rate=0.0, sample_fidelity=1.0)
        engine = CDAEngine(
            DataSourceRegistry(db), config=ReliabilityConfig.llm_only(), llm=llm
        )
        answer = engine.ask(
            "who works where we have an office",
            llm_gold_sql="SELECT name FROM employees WHERE city IN (SELECT city FROM offices)",
        )
        assert answer.kind is AnswerKind.DATA and answer.rows == [("dan",)]
        inputs = engine.session.tracker.records_for_component("sqldb")[-1].inputs
        assert inputs == ("dataset:Offices", "dataset:employees")
        assert engine.impact_of_source("Offices") == ["answer:0"]
