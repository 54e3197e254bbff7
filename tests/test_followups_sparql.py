"""Tests for conversational follow-ups, where-to analysis and expertise adaptation."""

import pytest

from repro.core import AnswerKind, CDAEngine
from repro.datasets import build_swiss_labour_registry


@pytest.fixture
def engine():
    domain = build_swiss_labour_registry(seed=5)
    return CDAEngine(domain.registry, domain.vocabulary)


class TestFollowUps:
    def test_and_for_refines_filter(self, engine):
        first = engine.ask("what is the total employees in zurich")
        followup = engine.ask("and for bern?")
        assert followup.kind is AnswerKind.DATA
        assert "bern" in followup.sql
        assert followup.rows != first.rows

    def test_what_about_refines_filter(self, engine):
        engine.ask("what is the total employees in zurich")
        followup = engine.ask("what about geneva")
        assert followup.kind is AnswerKind.DATA
        assert "geneva" in followup.sql

    def test_followup_keeps_aggregate_shape(self, engine):
        engine.ask("how many employment records in zurich")
        followup = engine.ask("and for ticino?")
        assert followup.kind is AnswerKind.DATA
        assert "COUNT(*)" in followup.sql

    def test_followup_value_from_other_column(self, engine):
        engine.ask("what is the total employees in zurich")
        followup = engine.ask("and for services?")  # sector, not canton
        assert followup.kind is AnswerKind.DATA
        assert "services" in followup.sql
        # The canton filter was replaced only if same column; sector adds.
        assert "zurich" in followup.sql

    def test_no_previous_intent_routes_normally(self, engine):
        answer = engine.ask("and for bern?")
        assert answer.kind is not AnswerKind.DATA or answer.rows is not None

    def test_unknown_value_falls_through(self, engine):
        engine.ask("what is the total employees in zurich")
        answer = engine.ask("and for atlantis?")
        assert answer.kind in (AnswerKind.ABSTENTION, AnswerKind.ERROR,
                               AnswerKind.CLARIFICATION, AnswerKind.DISCOVERY)

    def test_full_question_not_treated_as_followup(self, engine):
        engine.ask("what is the total employees in zurich")
        answer = engine.ask("how many cantons are there")
        assert answer.rows == [(8,)]

    def test_followup_answer_is_annotated(self, engine):
        engine.ask("what is the total employees in zurich")
        followup = engine.ask("and for bern?")
        assert followup.confidence is not None
        assert followup.explanation is not None
        assert any("follow-up" in n for n in followup.explanation.grounding_notes)


class TestWhereToAnalysis:
    def test_impact_lists_answers(self, engine):
        engine.ask("how many cantons are there")
        engine.ask("what is the total employees in zurich")
        impacted = engine.impact_of_source("employment")
        assert impacted  # the second answer rests on employment
        assert all(node.startswith("answer:") for node in impacted)

    def test_untouched_source_has_no_impact(self, engine):
        engine.ask("how many cantons are there")
        assert engine.impact_of_source("barometer") == []

    def test_unknown_source_empty(self, engine):
        assert engine.impact_of_source("nonexistent") == []


class TestExpertiseAdaptation:
    def test_expert_gets_terse_answers(self):
        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        # Several highly technical turns raise the inferred expertise.
        for _ in range(5):
            engine.session.profiler.observe(
                "decompose the variance and correlation of the regression "
                "with confidence interval and stddev per aggregate query"
            )
        answer = engine.ask("how many cantons are there")
        assert "I am computing" not in answer.text

    def test_novice_gets_interpretation(self):
        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        answer = engine.ask("how many cantons are there")
        assert "I am computing" in answer.text
