"""Tests for the simulated LLM, constrained decoding, generation, paraphrase."""

import numpy as np
import pytest

from repro.errors import ConstrainedDecodingError, NLError
from repro.kg import DomainVocabulary, VocabularyTerm
from repro.nl import (
    AggregateSpec,
    AnswerGenerator,
    ConstrainedDecoder,
    ParaphraseGenerator,
    QueryIntent,
    SimulatedLLM,
    SQLValidator,
)
from repro.nl import llmsim
from repro.nl.llmsim import LLMOutput, _rng_for, _stable_u64

GOLD = "SELECT COUNT(*) AS count_all FROM employees WHERE city = 'zurich'"


@pytest.fixture
def llm(employees_db):
    return SimulatedLLM(employees_db.catalog, error_rate=0.4, seed=5)


class TestSimulatedLLM:
    def test_determinism(self, employees_db):
        a = SimulatedLLM(employees_db.catalog, error_rate=0.4, seed=5)
        b = SimulatedLLM(employees_db.catalog, error_rate=0.4, seed=5)
        out_a = a.generate_sql("q", GOLD, n_samples=4)
        out_b = b.generate_sql("q", GOLD, n_samples=4)
        assert [o.sql for o in out_a] == [o.sql for o in out_b]

    def test_knows_is_stable_per_question(self, llm):
        assert llm.knows("some question") == llm.knows("some question")

    def test_error_rate_zero_always_faithful(self, employees_db):
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.0, sample_fidelity=1.0)
        outputs = llm.generate_sql("q", GOLD, n_samples=10)
        assert all(output.is_faithful for output in outputs)
        assert all(output.sql == GOLD for output in outputs)

    def test_error_rate_one_never_faithful(self, employees_db):
        llm = SimulatedLLM(employees_db.catalog, error_rate=1.0)
        outputs = llm.generate_sql("q", GOLD, n_samples=10)
        assert not any(output.is_faithful for output in outputs)
        assert all(output.sql != GOLD for output in outputs)

    def test_empirical_error_rate_tracks_parameter(self, employees_db):
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.3, seed=1)
        knows = [llm.knows(f"question {i}") for i in range(300)]
        assert 0.6 <= np.mean(knows) <= 0.8

    def test_mutations_are_plausible_or_syntax_errors(self, employees_db):
        from repro.sqldb.parser import parse_sql

        llm = SimulatedLLM(employees_db.catalog, error_rate=1.0, seed=2)
        outputs = llm.generate_sql("q", GOLD, n_samples=20)
        for output in outputs:
            assert output.mutation is not None
            if output.mutation != "syntax_error":
                parse_sql(output.sql)  # must stay parseable

    def test_self_confidence_is_overconfident(self, employees_db):
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.5, seed=3)
        confidences = []
        for i in range(100):
            outputs = llm.generate_sql(f"q{i}", GOLD, n_samples=1)
            confidences.append(outputs[0].self_confidence)
        # Mean self-report way above the 50% actual knowledge rate.
        assert np.mean(confidences) > 0.7

    def test_parameter_validation(self, employees_db):
        with pytest.raises(NLError):
            SimulatedLLM(employees_db.catalog, error_rate=1.5)

    def test_call_counter(self, llm):
        before = llm.calls
        llm.generate_sql("q", GOLD, n_samples=3)
        assert llm.calls == before + 3

    def test_rng_draws_equal_default_rng(self):
        for i in range(200):
            parts = ("sim-llm-1", "0", "sample", f"question {i}", str(i % 5))
            ours = _rng_for(*parts)
            reference = np.random.default_rng(_stable_u64(*parts))
            assert ours.random() == reference.random()
            assert ours.integers(0, 17) == reference.integers(0, 17)
            order, expected = list(range(7)), list(range(7))
            ours.shuffle(order)
            reference.shuffle(expected)
            assert order == expected
            assert ours.beta(9.0, 1.8) == reference.beta(9.0, 1.8)

    @pytest.mark.parametrize(
        ("gold", "parses"),
        [(GOLD, [GOLD]), ("SELCT broken", ["SELCT broken"])],
    )
    def test_gold_is_parsed_at_most_once_per_call(
        self, employees_db, monkeypatch, gold, parses
    ):
        calls: list[str] = []
        original = llmsim.parse_sql

        def counted(sql):
            calls.append(sql)
            return original(sql)

        monkeypatch.setattr(llmsim, "parse_sql", counted)
        wrong = SimulatedLLM(employees_db.catalog, error_rate=1.0, seed=2)
        outputs = wrong.generate_sql("q", gold, n_samples=10)
        assert all(output.mutation is not None for output in outputs)
        assert calls == parses
        calls.clear()
        faithful = SimulatedLLM(employees_db.catalog, error_rate=0.0, sample_fidelity=1.0)
        faithful.generate_sql("q", gold, n_samples=10)
        assert calls == []


class TestSQLValidator:
    def test_valid_sql_passes(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate(GOLD)
        assert report.valid

    def test_parse_error_caught(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate("SELCT x FROM t")
        assert not report.valid
        assert "parse" in report.problems[0]

    def test_unknown_table(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate("SELECT x FROM nope")
        assert any("unknown table" in problem for problem in report.problems)

    def test_unknown_column(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate(
            "SELECT bogus FROM employees"
        )
        assert any("unknown column" in problem for problem in report.problems)

    def test_ambiguous_column(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate(
            "SELECT department FROM employees "
            "JOIN departments ON employees.department = departments.department"
        )
        assert any("ambiguous" in problem for problem in report.problems)

    def test_order_by_output_alias_allowed(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate(
            "SELECT department, COUNT(*) AS n FROM employees "
            "GROUP BY department ORDER BY n"
        )
        assert report.valid

    def test_aggregate_in_where_rejected(self, employees_db):
        report = SQLValidator(employees_db.catalog).validate(
            "SELECT id FROM employees WHERE COUNT(*) > 1"
        )
        assert not report.valid


class TestConstrainedDecoder:
    def test_first_valid_candidate_wins(self, employees_db):
        decoder = ConstrainedDecoder(SQLValidator(employees_db.catalog))
        candidates = [
            LLMOutput(sql="SELCT broken", self_confidence=0.9),
            LLMOutput(sql=GOLD, self_confidence=0.8),
        ]
        result = decoder.decode(candidates)
        assert result.output.sql == GOLD
        assert result.attempts == 2
        assert len(result.rejected) == 1

    def test_all_invalid_raises(self, employees_db):
        decoder = ConstrainedDecoder(SQLValidator(employees_db.catalog))
        with pytest.raises(ConstrainedDecodingError):
            decoder.decode([LLMOutput(sql="nope", self_confidence=0.5)])

    def test_rejection_sampling_eventually_valid(self, employees_db):
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.8, seed=9)
        decoder = ConstrainedDecoder(SQLValidator(employees_db.catalog))
        result = decoder.rejection_sample(llm, "hard question", GOLD, max_attempts=16)
        assert SQLValidator(employees_db.catalog).validate(result.output.sql).valid


class TestAnswerGenerator:
    def test_scalar_answer(self, employees_db):
        generator = AnswerGenerator()
        intent = QueryIntent(
            table="employees", aggregates=[AggregateSpec("COUNT", None)]
        )
        result = employees_db.execute("SELECT COUNT(*) FROM employees")
        text = generator.render_answer(intent, result)
        assert "5" in text

    def test_empty_answer_mentions_nothing_found(self, employees_db):
        generator = AnswerGenerator()
        intent = QueryIntent(table="employees", select_columns=["name"])
        result = employees_db.execute("SELECT name FROM employees WHERE id > 99")
        assert "No rows" in generator.render_answer(intent, result)

    def test_grouped_answer_lists_groups(self, employees_db):
        generator = AnswerGenerator()
        intent = QueryIntent(
            table="employees",
            aggregates=[AggregateSpec("AVG", "salary")],
            group_by=["department"],
        )
        result = employees_db.execute(
            "SELECT department, AVG(salary) AS avg_salary FROM employees "
            "GROUP BY department ORDER BY department"
        )
        text = generator.render_answer(intent, result)
        assert "engineering" in text
        assert "sales" in text

    def test_table_answer_truncates(self, employees_db):
        generator = AnswerGenerator(max_rows_in_prose=2)
        intent = QueryIntent(table="employees", select_columns=["name"])
        result = employees_db.execute("SELECT name FROM employees")
        text = generator.render_answer(intent, result)
        assert "3 more row(s)" in text

    def test_every_number_in_prose_comes_from_result(self, employees_db):
        # Faithfulness by construction: values in the text are result values.
        generator = AnswerGenerator()
        intent = QueryIntent(
            table="employees", aggregates=[AggregateSpec("SUM", "salary")]
        )
        result = employees_db.execute("SELECT SUM(salary) FROM employees")
        text = generator.render_answer(intent, result)
        assert "340" in text

    def test_clarification_rendering(self):
        generator = AnswerGenerator()
        text = generator.render_clarification("q", ["barometer", "employment"])
        assert "barometer" in text
        assert "employment" in text

    def test_abstention_rendering(self):
        text = AnswerGenerator().render_abstention(0.3, 0.6)
        assert "0.30" in text
        assert "0.60" in text

    def test_dataset_suggestions_rendering(self):
        text = AnswerGenerator().render_dataset_suggestions(
            "workforce", [("employment", "desc here", 0.5)]
        )
        assert "employment" in text
        assert "Which one" in text


class TestParaphrase:
    def test_zero_strength_is_identity(self):
        generator = ParaphraseGenerator(rng=np.random.default_rng(0))
        question = "how many employees are there"
        assert generator.paraphrase(question, strength=0.0) == question

    def test_noise_changes_text(self):
        generator = ParaphraseGenerator(rng=np.random.default_rng(0))
        question = "what is the average salary of employees"
        noised = [generator.paraphrase(question, strength=1.0) for _ in range(5)]
        assert any(text != question for text in noised)

    def test_synonym_substitution_uses_vocabulary(self):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(
            VocabularyTerm(name="employees", synonyms=["workforce"])
        )
        generator = ParaphraseGenerator(
            vocabulary=vocabulary, rng=np.random.default_rng(1)
        )
        results = {
            generator.paraphrase("how many employees are there", strength=1.0)
            for _ in range(10)
        }
        assert any("workforce" in text for text in results)

    def test_deterministic_given_rng(self):
        a = ParaphraseGenerator(rng=np.random.default_rng(3))
        b = ParaphraseGenerator(rng=np.random.default_rng(3))
        question = "what is the total mileage of vehicles"
        assert [a.paraphrase(question, 0.8) for _ in range(5)] == [
            b.paraphrase(question, 0.8) for _ in range(5)
        ]
