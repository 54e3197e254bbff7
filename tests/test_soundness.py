"""Tests for the soundness layer: UQ, calibration, verification, abstention."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import AbstentionError, SoundnessError
from repro.nl import SimulatedLLM
from repro.nl.llmsim import LLMOutput
from repro.soundness import (
    AnswerVerifier,
    ConsistencyUQ,
    IsotonicCalibrator,
    RowVerdict,
    SelectiveAnsweringPolicy,
    area_under_risk_coverage,
    auroc,
    brier_score,
    expected_calibration_error,
    fuse_confidence,
    risk_coverage_curve,
)
from repro.soundness.abstention import accuracy_at_coverage

GOLD = "SELECT AVG(salary) AS avg_salary FROM employees WHERE department = 'sales'"


class TestConsistencyUQ:
    def test_unanimous_agreement(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, GOLD, GOLD])
        assert result.confidence == 1.0
        assert result.chosen is not None

    def test_semantic_equivalence_clusters_together(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        # Different SQL text, same answer.
        other = (
            "SELECT AVG(salary) AS avg_salary FROM employees "
            "WHERE department = 'sales' AND 1 = 1"
        )
        result = uq.assess_sql([GOLD, other])
        assert result.confidence == 1.0

    def test_disagreement_lowers_confidence(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        wrong = "SELECT MAX(salary) AS avg_salary FROM employees"
        result = uq.assess_sql([GOLD, GOLD, wrong])
        assert result.confidence == pytest.approx(2 / 3)

    def test_invalid_candidates_count_against_confidence(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, "SELCT broken", "also broken"])
        assert result.confidence == pytest.approx(1 / 3)
        assert result.n_valid == 1

    def test_all_invalid_abstains(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql(["broken", "also broken"])
        assert result.abstained
        assert result.confidence == 0.0

    def test_majority_rows_returned(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, GOLD])
        assert result.majority_rows == [(75.0,)]

    def test_empty_candidates_rejected(self, employees_db):
        with pytest.raises(SoundnessError):
            ConsistencyUQ(employees_db).assess([])

    def test_agreement_discriminates_better_than_self_report(self, employees_db):
        """The E3 claim in miniature: consistency AUROC > self-report AUROC."""
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.4, seed=13)
        uq = ConsistencyUQ(employees_db)
        self_conf, cons_conf, correct = [], [], []
        for index in range(40):
            outputs = llm.generate_sql(f"question {index}", GOLD, n_samples=5)
            vote = uq.assess(outputs)
            self_conf.append(outputs[0].self_confidence)
            cons_conf.append(vote.confidence)
            correct.append(
                1.0 if vote.chosen is not None and vote.chosen.is_faithful else 0.0
            )
        assert auroc(cons_conf, correct) > auroc(self_conf, correct)


class TestCalibrationMetrics:
    def test_perfect_calibration_zero_ece(self):
        rng = np.random.default_rng(0)
        confidences = rng.uniform(0.05, 0.95, size=4000)
        outcomes = (rng.random(4000) < confidences).astype(float)
        assert expected_calibration_error(confidences, outcomes) < 0.05

    def test_overconfidence_detected(self):
        confidences = np.full(100, 0.9)
        outcomes = np.array([1.0] * 50 + [0.0] * 50)
        assert expected_calibration_error(confidences, outcomes) == pytest.approx(0.4)

    def test_brier_score_bounds(self):
        assert brier_score([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert brier_score([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_auroc_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auroc_inverted_ranking(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_auroc_ties_give_half(self):
        assert auroc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_auroc_degenerate(self):
        assert auroc([0.5, 0.6], [1, 1]) == 0.5

    def test_input_validation(self):
        with pytest.raises(SoundnessError):
            expected_calibration_error([1.5], [1])
        with pytest.raises(SoundnessError):
            expected_calibration_error([0.5], [2])
        with pytest.raises(SoundnessError):
            expected_calibration_error([], [])


class TestRecalibration:
    def make_overconfident(self, n=2000):
        rng = np.random.default_rng(1)
        confidences = rng.uniform(0.6, 0.99, size=n)
        true_probability = (confidences - 0.5) * 0.8  # actual accuracy lower
        outcomes = (rng.random(n) < true_probability).astype(float)
        return confidences, outcomes

    def test_isotonic_reduces_ece(self):
        confidences, outcomes = self.make_overconfident()
        calibrator = IsotonicCalibrator().fit(confidences[:1000], outcomes[:1000])
        raw = expected_calibration_error(confidences[1000:], outcomes[1000:])
        calibrated = expected_calibration_error(
            calibrator.transform(confidences[1000:]), outcomes[1000:]
        )
        assert calibrated < raw / 2

    def test_isotonic_is_monotone(self):
        confidences, outcomes = self.make_overconfident()
        calibrator = IsotonicCalibrator().fit(confidences, outcomes)
        grid = np.linspace(0, 1, 50)
        transformed = calibrator.transform(grid)
        assert np.all(np.diff(transformed) >= -1e-12)

    def test_unfitted_calibrator_raises(self):
        with pytest.raises(SoundnessError):
            IsotonicCalibrator().transform([0.5])


class TestVerifier:
    def test_correct_answer_passes_all_depths(self, employees_db):
        result = employees_db.execute(GOLD)
        verifier = AnswerVerifier(employees_db)
        for depth in ("static", "reexecution", "provenance"):
            assert verifier.verify(result, depth=depth).passed

    def test_static_catches_schema_hallucination(self, employees_db):
        result = replace(employees_db.execute(GOLD), sql="SELECT bogus_column FROM employees")
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert not report.passed

    def test_reexecution_catches_tampered_rows(self, employees_db):
        result = replace(employees_db.execute(GOLD), rows=((999.0,),))
        report = AnswerVerifier(employees_db).verify(result, depth="reexecution")
        assert not report.passed
        assert any("different rows" in issue for issue in report.issues)

    def test_provenance_recomputes_aggregate(self, employees_db):
        result = employees_db.execute(GOLD)
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert any("recompute aggregate" in check for check in report.checks_run)

    def test_provenance_catches_missing_lineage(self, employees_db):
        result = replace(
            employees_db.execute("SELECT name FROM employees WHERE id = 1"), lineage=()
        )
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed

    def test_provenance_checks_filters_on_cited_rows(self, employees_db):
        result = employees_db.execute(
            "SELECT name FROM employees WHERE city = 'zurich'"
        )
        # Claim a bern row supports a zurich answer.
        result = replace(result, lineage=(frozenset({("employees", 1)}),) * len(result.rows))
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert any("WHERE clause" in issue for issue in report.issues)

    def test_provenance_rejects_rows_of_another_table(self, employees_db):
        result = employees_db.execute(
            "SELECT COUNT(*) FROM employees WHERE department = 'engineering'"
        )
        # departments[0] is 'engineering' too, so a per-row WHERE re-check
        # alone would accept it; the query never read that table.
        result = replace(result, lineage=(frozenset({("departments", 0), ("employees", 0)}),))
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert list(report.issues) == [
            "cited row departments[0] is not from the queried table employees",
            "aggregate recomputed from cited rows is 1, but the answer reports 2",
        ]

    def test_invalid_depth_rejected(self, employees_db):
        result = employees_db.execute(GOLD)
        with pytest.raises(SoundnessError):
            AnswerVerifier(employees_db).verify(result, depth="bogus")


class TestVerifierSubqueries:
    """Provenance re-derivation of answers whose WHERE has a subquery."""

    ABOVE_AVERAGE = (
        "SELECT name FROM employees "
        "WHERE salary > (SELECT AVG(salary) FROM employees)"
    )

    def test_scalar_subquery_answer_passes(self, employees_db):
        result = employees_db.execute(self.ABOVE_AVERAGE)
        assert sorted(result.rows) == [("ann",), ("bob",)]
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert report.passed, report.issues
        assert "re-apply WHERE to cited rows" in report.checks_run

    def test_in_subquery_count_passes(self, employees_db):
        result = employees_db.execute(
            "SELECT COUNT(*) FROM employees WHERE department IN "
            "(SELECT department FROM departments WHERE floor = 2)"
        )
        assert list(result.rows) == [(3,)]
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert report.passed, report.issues
        assert "recompute aggregate from cited rows alone" in report.checks_run

    def test_tampered_row_still_fails(self, employees_db):
        result = employees_db.execute(self.ABOVE_AVERAGE)
        # Cite dan (salary 70, below the average of 85) for every row.
        result = replace(result, lineage=(frozenset({("employees", 3)}),) * len(result.rows))
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert list(report.issues) == [
            "cited row employees[3] does not satisfy the query's WHERE clause"
        ] * len(result.rows)


class TestConfidenceFusion:
    def test_consistency_preferred_over_self_report(self):
        breakdown = fuse_confidence(self_reported=0.99, consistency=0.4)
        assert breakdown.value == pytest.approx(0.4)

    def test_grounding_scales(self):
        high = fuse_confidence(consistency=0.8, grounding=1.0)
        low = fuse_confidence(consistency=0.8, grounding=0.2)
        assert high.value > low.value

    def test_failed_verification_collapses(self):
        breakdown = fuse_confidence(consistency=0.95, verification_passed=False)
        assert breakdown.value <= 0.05

    def test_passed_verification_keeps_value(self):
        breakdown = fuse_confidence(consistency=0.8, verification_passed=True)
        assert breakdown.value == pytest.approx(0.8)

    def test_requires_some_signal(self):
        with pytest.raises(SoundnessError):
            fuse_confidence()

    def test_unit_interval_validation(self):
        with pytest.raises(SoundnessError):
            fuse_confidence(self_reported=1.2)

    def test_describe_mentions_parts(self):
        breakdown = fuse_confidence(self_reported=0.7, grounding=0.9)
        text = breakdown.describe()
        assert "self_reported" in text
        assert "grounding" in text


class TestAbstention:
    def test_threshold_decision(self):
        policy = SelectiveAnsweringPolicy(threshold=0.6)
        assert policy.decide(0.7).answered
        assert policy.decide(0.5).abstained

    def test_failed_verification_forces_abstention(self):
        policy = SelectiveAnsweringPolicy(threshold=0.1)
        assert policy.decide(0.99, verification_passed=False).abstained

    def test_require_answer_raises(self):
        policy = SelectiveAnsweringPolicy(threshold=0.9)
        with pytest.raises(AbstentionError) as excinfo:
            policy.require_answer(0.2)
        assert excinfo.value.confidence == 0.2
        assert excinfo.value.threshold == 0.9

    def test_risk_coverage_monotone_coverage(self):
        rng = np.random.default_rng(2)
        confidences = rng.uniform(size=300)
        correct = (rng.random(300) < confidences).astype(float)
        points = risk_coverage_curve(confidences, correct)
        coverages = [point.coverage for point in points]
        assert coverages == sorted(coverages, reverse=True)

    def test_informative_confidence_beats_random_aurc(self):
        rng = np.random.default_rng(3)
        true_probability = rng.uniform(size=500)
        correct = (rng.random(500) < true_probability).astype(float)
        informed = risk_coverage_curve(true_probability, correct)
        random_conf = rng.uniform(size=500)
        uninformed = risk_coverage_curve(random_conf, correct)
        assert area_under_risk_coverage(informed) < area_under_risk_coverage(uninformed)

    def test_accuracy_at_coverage(self):
        points = risk_coverage_curve([0.9, 0.8, 0.2], [1, 1, 0])
        assert accuracy_at_coverage(points, 0.6) == pytest.approx(1.0)

    def test_threshold_validation(self):
        with pytest.raises(SoundnessError):
            SelectiveAnsweringPolicy(threshold=1.5)


class TestRowVerification:
    def test_grouped_aggregate_rows_verify(self, employees_db):
        from repro.soundness.verifier import verify_rows

        result = employees_db.execute(
            "SELECT department, SUM(salary) AS total FROM employees "
            "GROUP BY department ORDER BY department"
        )
        verdicts = verify_rows(employees_db, result)
        assert verdicts is not None
        assert all(verdict.verified for verdict in verdicts)
        assert len(verdicts) == 2

    def test_tampered_row_flagged_individually(self, employees_db):
        from repro.soundness.verifier import verify_rows

        result = employees_db.execute(
            "SELECT department, COUNT(*) AS n FROM employees "
            "GROUP BY department ORDER BY department"
        )
        tampered = list(result.rows)
        tampered[1] = (tampered[1][0], 999)
        result = replace(result, rows=tuple(tampered))
        verdicts = verify_rows(employees_db, result)
        assert verdicts[0].verified
        assert not verdicts[1].verified
        assert "999" in verdicts[1].detail

    def test_group_citing_another_table_not_verified(self, employees_db):
        from repro.soundness.verifier import verify_rows

        result = employees_db.execute(
            "SELECT department, COUNT(*) AS n FROM employees "
            "GROUP BY department ORDER BY department"
        )
        # Two engineering rows, but cited from the departments table.
        result = replace(
            result,
            lineage=(frozenset({("departments", 0), ("departments", 1)}), result.lineage[1]),
        )
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert sorted(report.issues) == [
            "cited row departments[0] is not from the queried table employees",
            "cited row departments[1] is not from the queried table employees",
        ]
        verdicts = verify_rows(employees_db, result)
        assert list(verdicts) == [
            RowVerdict(
                0,
                False,
                "cannot re-derive: cited row departments[0] is not from the "
                "queried table employees",
            ),
            RowVerdict(1, True),
        ]

    def test_unverifiable_shapes_return_none(self, employees_db):
        from repro.soundness.verifier import verify_rows

        joined = employees_db.execute(
            "SELECT e.department, COUNT(*) FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "GROUP BY e.department"
        )
        assert verify_rows(employees_db, joined) is None
        plain = employees_db.execute("SELECT name FROM employees")
        assert verify_rows(employees_db, plain) is None

    def test_engine_attaches_row_verification(self):
        from repro.core import CDAEngine
        from repro.datasets import build_swiss_labour_registry

        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        answer = engine.ask("what is the average employees for each sector")
        assert answer.metadata.get("row_verification") is not None
        assert all(answer.metadata["row_verification"])
