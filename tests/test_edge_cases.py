"""Edge-case tests across layers that the main suites do not reach."""

import numpy as np
import pytest

from repro.core import Answer, AnswerKind, CDAEngine, ReliabilityConfig
from repro.datasets import build_swiss_labour_registry
from repro.errors import ExecutionError
from repro.soundness.confidence import ConfidenceBreakdown
from repro.sqldb import Database


class TestAnswerRendering:
    def test_render_toggles(self):
        answer = Answer(
            kind=AnswerKind.DATA,
            text="the answer",
            confidence=ConfidenceBreakdown(value=0.8, parts={"x": 0.8}),
            sources=["https://example.org"],
        )
        full = answer.render()
        assert "Confidence: 80%" in full
        assert "example.org" in full
        bare = answer.render(show_confidence=False, show_sources=False)
        assert "Confidence" not in bare
        assert "example.org" not in bare

    def test_answered_property(self):
        assert Answer(kind=AnswerKind.DATA, text="x").answered
        assert Answer(kind=AnswerKind.METADATA, text="x").answered
        assert not Answer(kind=AnswerKind.ABSTENTION, text="x").answered
        assert not Answer(kind=AnswerKind.CLARIFICATION, text="x").answered


class TestEngineEdges:
    @pytest.fixture
    def engine(self):
        domain = build_swiss_labour_registry(seed=41)
        return CDAEngine(domain.registry, domain.vocabulary)

    def test_empty_result_still_annotated(self, engine):
        answer = engine.ask(
            "how many employment records have employees above 99999999"
        )
        assert answer.kind is AnswerKind.DATA
        assert answer.rows == [(0,)]
        assert answer.verification.passed

    def test_repeated_questions_consistent(self, engine):
        first = engine.ask("how many cantons are there")
        second = engine.ask("how many cantons are there")
        assert first.rows == second.rows
        assert second.verification.passed  # cache copy still verifies

    def test_conversation_graph_grows_monotonically(self, engine):
        sizes = []
        for question in ("hello", "how many cantons are there", "thanks"):
            engine.ask(question)
            sizes.append(len(engine.session.graph))
        assert sizes == sorted(sizes)
        assert sizes[-1] >= 6  # each turn adds user + system nodes

    def test_metadata_for_document_source(self, engine):
        answer = engine.ask("how is the barometer methodology documented")
        assert answer.kind in (AnswerKind.METADATA, AnswerKind.ABSTENTION)
        if answer.kind is AnswerKind.METADATA:
            assert answer.sources


class TestSQLEdges:
    def test_order_by_expression(self, employees_db):
        rows = employees_db.execute(
            "SELECT name FROM employees WHERE salary IS NOT NULL "
            "ORDER BY salary * -1 ASC LIMIT 1"
        ).rows
        assert list(rows) == [("ann",)]

    def test_case_in_aggregate(self, employees_db):
        result = employees_db.execute(
            "SELECT SUM(CASE WHEN city = 'zurich' THEN 1 ELSE 0 END) "
            "FROM employees"
        )
        assert result.scalar() == 3

    def test_string_functions_compose(self, employees_db):
        result = employees_db.execute(
            "SELECT UPPER(SUBSTR(name, 1, 1)) || name FROM employees WHERE id = 1"
        )
        assert result.scalar() == "Aann"

    def test_group_by_expression(self, employees_db):
        result = employees_db.execute(
            "SELECT UPPER(city), COUNT(*) FROM employees "
            "GROUP BY UPPER(city) ORDER BY UPPER(city)"
        )
        assert result.rows[0] == ("BERN", 1)

    def test_offset_beyond_result(self, employees_db):
        rows = employees_db.execute(
            "SELECT id FROM employees ORDER BY id LIMIT 5 OFFSET 100"
        ).rows
        assert list(rows) == []

    def test_limit_zero(self, employees_db):
        assert list(employees_db.execute("SELECT id FROM employees LIMIT 0").rows) == []

    def test_division_error_inside_aggregate_argument(self, employees_db):
        with pytest.raises(ExecutionError):
            employees_db.execute("SELECT SUM(salary / 0) FROM employees")

    def test_self_join_with_aliases(self, employees_db):
        result = employees_db.execute(
            "SELECT a.name, b.name FROM employees a "
            "JOIN employees b ON a.department = b.department "
            "WHERE a.id < b.id ORDER BY a.id, b.id"
        )
        # eng pair (ann,bob) + sales pairs (cat,dan),(cat,eve),(dan,eve)
        assert len(result.rows) == 4

    def test_between_in_where(self, employees_db):
        rows = employees_db.execute(
            "SELECT id FROM employees WHERE salary BETWEEN 75 AND 95 ORDER BY id"
        ).rows
        assert list(rows) == [(2,), (3,)]


class TestProgressiveBatching:
    def test_batch_size_larger_than_dataset(self):
        from repro.vector import ProgressiveIndex, VectorDataset

        rng = np.random.default_rng(0)
        dataset = VectorDataset(vectors=rng.normal(size=(10, 4)))
        index = ProgressiveIndex(delta=0.1, batch_size=1000)
        index.build(dataset)
        result = index.search(dataset.vectors[0], 3)
        assert len(result.ids) == 3
        assert result.distances[0] == pytest.approx(0.0)

    def test_k_equals_dataset_size(self):
        from repro.vector import ProgressiveIndex, VectorDataset

        rng = np.random.default_rng(0)
        dataset = VectorDataset(vectors=rng.normal(size=(8, 4)))
        index = ProgressiveIndex(delta=0.1)
        index.build(dataset)
        result = index.search(dataset.vectors[0], 8)
        assert sorted(result.ids) == list(range(8))


class TestLLMOnlyConfigPath:
    def test_llm_only_without_llm_is_graceful(self):
        domain = build_swiss_labour_registry(seed=41)
        engine = CDAEngine(
            domain.registry, domain.vocabulary,
            config=ReliabilityConfig.llm_only(), llm=None,
        )
        answer = engine.ask("how many cantons are there")
        # Without any translator it must not fabricate data: it either
        # abstains or degrades to a dataset overview (the named source).
        assert answer.kind in (AnswerKind.ABSTENTION, AnswerKind.METADATA)
        assert answer.rows is None

    def test_discovery_still_available_in_llm_only(self):
        domain = build_swiss_labour_registry(seed=41)
        engine = CDAEngine(
            domain.registry, domain.vocabulary,
            config=ReliabilityConfig.llm_only(),
        )
        answer = engine.ask("what datasets are available about the labour market")
        assert answer.kind is AnswerKind.DISCOVERY
