"""SQL text is parsed once, where it enters the system.

A turn carries the parsed ``SelectStatement`` from translation through
execution and verification.  The grounded parser and follow-ups build
the statement directly, so their turns parse nothing; an LLM generation
is parsed once per distinct text, and the verifier parses the answer's text
again only when it is not the statement's canonical rendering.

Every ``parse_sql`` call is counted, whichever module imported the name.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import repro.core.engine  # noqa: F401 - import every caller before patching
import repro.sqldb.parser as parser_module
from repro.core import AnswerKind, CDAEngine, ReliabilityConfig
from repro.datasets import build_swiss_labour_registry
from repro.nl.llmsim import LLMOutput
from repro.soundness.verifier import AnswerVerifier

GOLD = "SELECT COUNT(*) AS count_all FROM cantons"


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """The text of every ``parse_sql`` call made while the test runs."""
    calls: list[str] = []
    original = parser_module.parse_sql

    def counted(sql):
        calls.append(sql)
        return original(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse_sql", None) is original:
            monkeypatch.setattr(module, "parse_sql", counted)
    return calls


class ScriptedLLM:
    """A generator that answers every question with fixed texts."""

    def __init__(self, texts: list[str]):
        self.texts = texts

    def generate_sql(self, question, gold_sql, n_samples=1):
        return [
            LLMOutput(sql=text, self_confidence=0.9) for text in self.texts[:n_samples]
        ]


def _engine(llm=None, **config) -> CDAEngine:
    domain = build_swiss_labour_registry(seed=5)
    return CDAEngine(
        domain.registry,
        domain.vocabulary,
        config=ReliabilityConfig(verification_depth="provenance", **config),
        llm=llm,
    )


def _asked(engine, parses, text, gold=None):
    before = len(parses)
    answer = engine.ask(text, llm_gold_sql=gold)
    return answer, parses[before:]


class TestGroundedTurns:
    def test_data_and_followup_turns_parse_nothing(self, parses):
        engine = _engine()
        first, first_parses = _asked(engine, parses, "what is the total employees in zurich")
        followup, followup_parses = _asked(engine, parses, "and for bern?")
        for answer in (first, followup):
            assert answer.kind is AnswerKind.DATA
            assert answer.intent is not None
            assert answer.verification.depth == "provenance"
            assert answer.verification.passed, answer.verification.issues
        assert any("follow-up" in note for note in followup.explanation.grounding_notes)
        assert first_parses == []
        assert followup_parses == []

    def test_answer_text_is_the_statement_rendering(self, parses):
        engine = _engine()
        answer = engine.ask("how many cantons are there")
        assert answer.rows == [(8,)]
        assert parser_module.parse_sql(answer.sql).to_sql() == answer.sql


class TestLLMTurns:
    def test_each_sample_is_parsed_once(self, parses):
        assert parser_module.parse_sql(GOLD).to_sql() == GOLD  # canonical
        samples = [GOLD, GOLD, GOLD, "SELCT broken", "SELECT nosuch FROM cantons"]
        engine = _engine(ScriptedLLM(samples), use_grounded_parser=False)
        answer, turn_parses = _asked(engine, parses, "an odd question", GOLD)
        assert answer.kind is AnswerKind.DATA
        assert answer.rows == [(8,)]
        assert answer.sql == GOLD
        assert answer.verification.passed, answer.verification.issues
        assert sorted(turn_parses) == sorted(dict.fromkeys(samples))

    def test_non_canonical_choice_costs_one_verifier_parse(self, parses):
        text = "select count(*) as count_all from cantons"
        engine = _engine(ScriptedLLM([text] * 5), use_grounded_parser=False)
        answer, turn_parses = _asked(engine, parses, "an odd question", GOLD)
        assert answer.kind is AnswerKind.DATA
        # The generation as written stays the answer's SQL.
        assert answer.sql == text
        assert answer.verification.passed, answer.verification.issues
        # One parse for the five identical samples, one for the verifier.
        assert turn_parses == [text] * 2

    def test_unparseable_single_sample_errors_after_one_parse(self, parses):
        engine = _engine(
            ScriptedLLM(["SELCT broken"]),
            use_grounded_parser=False,
            use_constrained_decoding=False,
            consistency_samples=1,
        )
        answer, turn_parses = _asked(engine, parses, "an odd question", GOLD)
        assert answer.kind is AnswerKind.ERROR
        assert "generated query failed" in answer.text
        assert turn_parses == ["SELCT broken"]


class TestDatabaseBoundary:
    def test_execute_text_parses_exactly_once(self, parses, employees_db):
        sql = "SELECT name FROM employees WHERE id = 1"
        parses.clear()
        result = employees_db.execute(sql)
        assert list(result.rows) == [("ann",)]
        assert parses == [sql]

    def test_execute_select_parses_nothing(self, parses, employees_db):
        statement = parser_module.parse_sql("SELECT name FROM employees")
        parses.clear()
        employees_db.execute_select(statement)
        assert parses == []


class TestStaticDepthChecksTheExecutedStatement:
    SQL = "SELECT name FROM employees WHERE id = 1"

    def test_canonical_text_costs_no_parse(self, parses, employees_db):
        result = employees_db.execute_select(parser_module.parse_sql(self.SQL))
        parses.clear()
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert report.passed
        assert parses == []

    def test_bogus_statement_with_its_own_text_fails(self, employees_db):
        bogus = parser_module.parse_sql("SELECT bogus_column FROM employees")
        result = replace(employees_db.execute(self.SQL), statement=bogus, sql=bogus.to_sql())
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert not report.passed
        assert list(report.issues) == ["unknown column 'bogus_column'"]

    def test_text_of_another_statement_fails(self, employees_db):
        result = replace(
            employees_db.execute(self.SQL), sql="select name from employees where id = 2"
        )
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert list(report.issues) == ["the recorded SQL is not the statement that was executed"]

    def test_other_spelling_of_the_same_statement_passes(self, parses, employees_db):
        result = replace(
            employees_db.execute(self.SQL), sql="select name  from employees where (id = 1)"
        )
        parses.clear()
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert report.passed, report.issues
        assert parses == [result.sql]

    def test_unparseable_text_fails(self, employees_db):
        result = replace(employees_db.execute(self.SQL), sql="SELCT name FROM employees")
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert not report.passed
        assert list(report.issues) == ["the recorded SQL is not the statement that was executed"]

    def test_result_without_a_statement_fails(self, employees_db):
        result = employees_db.execute("CREATE TABLE t (a INT)")
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert not report.passed
        assert list(report.issues) == ["no SELECT statement was executed"]
