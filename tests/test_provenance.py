"""Tests for provenance: semiring, graph model, tracker, explanations."""

import pytest

from repro.errors import (
    InvertibilityViolation,
    LosslessnessViolation,
    ProvenanceError,
)
from repro.provenance import (
    ExplanationBuilder,
    Monomial,
    Polynomial,
    ProvenanceGraph,
    ProvenanceNode,
    ProvenanceNodeKind,
    ProvenanceTracker,
    check_invertibility,
    check_losslessness,
)
from repro.provenance.explanation import require_invertible, require_lossless
from repro.provenance.model import source_row_id
from repro.provenance.semiring import parse_row_variable, row_variable


class TestSemiring:
    def test_var_and_str(self):
        assert str(Polynomial.var("a")) == "a"

    def test_addition_merges_like_terms(self):
        poly = Polynomial.var("a") + Polynomial.var("a")
        assert str(poly) == "2*a"
        assert poly.derivation_count == 2

    def test_multiplication_builds_monomials(self):
        poly = Polynomial.var("a") * Polynomial.var("b")
        assert str(poly) == "a*b"

    def test_squaring(self):
        poly = Polynomial.var("a") * Polynomial.var("a")
        assert str(poly) == "a^2"

    def test_distributivity(self):
        a, b, c = (Polynomial.var(name) for name in "abc")
        left = a * (b + c)
        right = a * b + a * c
        assert left == right

    def test_identities(self):
        a = Polynomial.var("a")
        assert a + Polynomial.zero() == a
        assert a * Polynomial.one() == a
        assert (a * Polynomial.zero()).is_zero

    def test_variables(self):
        poly = Polynomial.var("a") * Polynomial.var("b") + Polynomial.var("c")
        assert poly.variables == {"a", "b", "c"}

    def test_counting_evaluation(self):
        # 2ab + c with a=3, b=1, c=5 -> 2*3*1 + 5 = 11
        poly = (
            Polynomial.var("a") * Polynomial.var("b")
            + Polynomial.var("a") * Polynomial.var("b")
            + Polynomial.var("c")
        )
        assert poly.evaluate({"a": 3, "b": 1, "c": 5}) == 11

    def test_boolean_evaluation(self):
        poly = Polynomial.var("a") * Polynomial.var("b") + Polynomial.var("c")
        value = poly.evaluate(
            {"a": True, "b": False, "c": False},
            add=lambda x, y: x or y,
            multiply=lambda x, y: x and y,
            zero=False,
            one=True,
        )
        assert value is False

    def test_evaluation_missing_variable(self):
        with pytest.raises(KeyError):
            Polynomial.var("a").evaluate({})

    def test_row_variable_roundtrip(self):
        variable = row_variable("emp", 7)
        assert parse_row_variable(variable) == ("emp", 7)

    def test_monomial_degree(self):
        mono = Monomial.of("a").multiply(Monomial.of("a")).multiply(Monomial.of("b"))
        assert mono.degree == 3


class TestProvenanceGraph:
    def build(self):
        graph = ProvenanceGraph()
        graph.add_node(ProvenanceNode("row:t:0", ProvenanceNodeKind.SOURCE_ROW, "r0"))
        graph.add_node(ProvenanceNode("sql:q1", ProvenanceNodeKind.QUERY, "q1"))
        graph.add_node(ProvenanceNode("answer:0", ProvenanceNodeKind.ANSWER, "a0"))
        graph.add_edge("row:t:0", "sql:q1")
        graph.add_edge("sql:q1", "answer:0")
        return graph

    def test_where_from(self):
        graph = self.build()
        ancestors = {node.node_id for node in graph.where_from("answer:0")}
        assert ancestors == {"row:t:0", "sql:q1"}

    def test_where_to(self):
        graph = self.build()
        descendants = {node.node_id for node in graph.where_to("row:t:0")}
        assert "answer:0" in descendants

    def test_sources_of_filters_to_leaves(self):
        graph = self.build()
        sources = [node.node_id for node in graph.sources_of("answer:0")]
        assert sources == ["row:t:0"]

    def test_answers_touched_by(self):
        graph = self.build()
        answers = [node.node_id for node in graph.answers_touched_by("row:t:0")]
        assert answers == ["answer:0"]

    def test_derivation_path(self):
        graph = self.build()
        path = [node.node_id for node in graph.derivation_path("row:t:0", "answer:0")]
        assert path == ["row:t:0", "sql:q1", "answer:0"]

    def test_no_path_raises(self):
        graph = self.build()
        graph.add_node(ProvenanceNode("doc:x", ProvenanceNodeKind.DOCUMENT, "x"))
        with pytest.raises(ProvenanceError):
            graph.derivation_path("doc:x", "answer:0")

    def test_cycle_rejected(self):
        graph = self.build()
        with pytest.raises(ProvenanceError):
            graph.add_edge("answer:0", "row:t:0")

    def test_idempotent_add(self):
        graph = self.build()
        size = len(graph)
        graph.add_node(ProvenanceNode("row:t:0", ProvenanceNodeKind.SOURCE_ROW, "r0"))
        assert len(graph) == size

    def test_kind_conflict_rejected(self):
        graph = self.build()
        with pytest.raises(ProvenanceError):
            graph.add_node(
                ProvenanceNode("row:t:0", ProvenanceNodeKind.ANSWER, "oops")
            )

    def test_topological_order(self):
        graph = self.build()
        order = [node.node_id for node in graph.topological_order()]
        assert order.index("row:t:0") < order.index("answer:0")


class TestTracker:
    def test_records_accumulate_in_order(self):
        tracker = ProvenanceTracker()
        tracker.record("a", ProvenanceNodeKind.QUERY, "first")
        tracker.record("b", ProvenanceNodeKind.COMPUTATION, "second")
        assert [r.ordinal for r in tracker.records] == [0, 1]

    def test_records_for_component(self):
        tracker = ProvenanceTracker()
        tracker.record("sql", ProvenanceNodeKind.QUERY, "q")
        tracker.record("nl", ProvenanceNodeKind.MODEL_CALL, "m")
        assert len(tracker.records_for_component("sql")) == 1

    def test_graph_materialisation(self):
        tracker = ProvenanceTracker()
        tracker.record(
            "sql",
            ProvenanceNodeKind.QUERY,
            "run query",
            inputs=["row:t:0"],
            outputs=["answer:0"],
        )
        graph = tracker.build_graph()
        assert "row:t:0" in graph
        assert "answer:0" in graph
        sources = [node.node_id for node in graph.sources_of("answer:0")]
        assert sources == ["row:t:0"]

    def test_kind_inference_from_prefix(self):
        tracker = ProvenanceTracker()
        tracker.record(
            "x", ProvenanceNodeKind.QUERY, "q", inputs=["doc:readme"], outputs=["answer:1"]
        )
        graph = tracker.build_graph()
        assert graph.node("doc:readme").kind is ProvenanceNodeKind.DOCUMENT
        assert graph.node("answer:1").kind is ProvenanceNodeKind.ANSWER

    def test_declared_artefacts_win(self):
        tracker = ProvenanceTracker()
        tracker.declare_artefact("blob:1", ProvenanceNodeKind.DATASET, "my blob")
        tracker.record("x", ProvenanceNodeKind.QUERY, "q", inputs=["blob:1"], outputs=[])
        graph = tracker.build_graph()
        assert graph.node("blob:1").label == "my blob"

    def test_records_producing(self):
        tracker = ProvenanceTracker()
        tracker.record("a", ProvenanceNodeKind.QUERY, "q", outputs=["answer:0"])
        assert len(tracker.records_producing("answer:0")) == 1


class TestExplanations:
    def make(self, employees_db):
        result = employees_db.execute(
            "SELECT department, SUM(salary) AS total FROM employees "
            "WHERE salary IS NOT NULL GROUP BY department ORDER BY department"
        )
        explanation = ExplanationBuilder(employees_db).from_query_result(
            result, question="total salary by department"
        )
        return result, explanation

    def test_lossless_by_construction(self, employees_db):
        result, explanation = self.make(employees_db)
        assert check_losslessness(explanation, result) == []

    def test_invertible_by_construction(self, employees_db):
        result, explanation = self.make(employees_db)
        assert check_invertibility(explanation, employees_db) == []

    def test_tampered_rows_violate_losslessness(self, employees_db):
        result, explanation = self.make(employees_db)
        explanation.rows = [("fake", 0.0)]
        violations = check_losslessness(explanation, result)
        assert any("rows differ" in violation for violation in violations)

    def test_missing_source_violates_losslessness(self, employees_db):
        result, explanation = self.make(employees_db)
        explanation.source_rows = explanation.source_rows[:-1]
        violations = check_losslessness(explanation, result)
        assert any("missing" in violation for violation in violations)

    def test_deleted_row_breaks_invertibility(self, employees_db):
        result, explanation = self.make(employees_db)
        employees_db.catalog.table("employees").delete_row(0)
        violations = check_invertibility(explanation, employees_db)
        assert violations  # row gone and replay differs

    def test_require_helpers_raise(self, employees_db):
        result, explanation = self.make(employees_db)
        require_lossless(explanation, result)  # should not raise
        require_invertible(explanation, employees_db)
        explanation.rows = []
        with pytest.raises(LosslessnessViolation):
            require_lossless(explanation, result)
        with pytest.raises(InvertibilityViolation):
            require_invertible(explanation, employees_db)

    def test_text_rendering_cites_sources(self, employees_db):
        _result, explanation = self.make(employees_db)
        text = explanation.to_text()
        assert "employees" in text
        assert "SELECT" in text

    def test_code_snippet_contains_sql(self, employees_db):
        _result, explanation = self.make(employees_db)
        assert "db.execute" in explanation.code_snippet

    def test_source_row_id_helper(self):
        assert source_row_id("t", 3) == "row:t:3"
