"""Tests for property composition — the paper's composability warning."""

import pytest

from repro.core import (
    Component,
    ComponentRegistry,
    Property,
    compose_properties,
)
from repro.core.registry import default_cda_registry
from repro.errors import CompositionError


@pytest.fixture
def registry():
    return default_cda_registry()


class TestRegistry:
    def test_default_components_present(self, registry):
        for name in ("grounded_parser", "sql_engine", "verifier", "llm_generator"):
            assert name in registry

    def test_duplicate_rejected(self, registry):
        with pytest.raises(CompositionError):
            registry.register(Component.make("sql_engine"))

    def test_unknown_component(self, registry):
        with pytest.raises(CompositionError):
            registry.get("warp_drive")

    def test_resolve_pipeline(self, registry):
        pipeline = registry.resolve(["grounded_parser", "sql_engine"])
        assert [component.name for component in pipeline] == [
            "grounded_parser",
            "sql_engine",
        ]


class TestComposition:
    def test_full_cda_pipeline_has_core_properties(self, registry):
        pipeline = registry.resolve(
            ["grounded_parser", "sql_engine", "verifier", "answer_generator"]
        )
        verdict = compose_properties(pipeline)
        assert verdict.holds(Property.GROUNDING)
        assert verdict.holds(Property.EXPLAINABILITY)
        assert verdict.holds(Property.SOUNDNESS)

    def test_two_explainable_components_do_not_suffice(self, registry):
        """The paper's exact warning: an explainability-providing engine
        followed by a free-text summariser loses explainability, even
        though a provenance-tracking engine produced it."""
        pipeline = registry.resolve(
            ["grounded_parser", "sql_engine", "free_summariser"]
        )
        verdict = compose_properties(pipeline)
        assert not verdict.holds(Property.EXPLAINABILITY)
        assert verdict.lost_at[Property.EXPLAINABILITY] == "free_summariser"

    def test_llm_generator_drops_grounding(self, registry):
        pipeline = registry.resolve(
            ["grounded_parser", "llm_generator", "sql_engine"]
        )
        verdict = compose_properties(pipeline)
        assert not verdict.holds(Property.GROUNDING)
        assert verdict.lost_at[Property.GROUNDING] == "llm_generator"

    def test_constrained_decoder_restores_nothing_but_preserves(self, registry):
        with_decoder = compose_properties(
            registry.resolve(
                ["grounded_parser", "constrained_decoder", "sql_engine"]
            )
        )
        assert with_decoder.holds(Property.GROUNDING)

    def test_requires_violation_is_an_error(self, registry):
        # The verifier requires explainability (lineage); putting it after
        # a summariser that drops lineage is an *invalid* composition.
        pipeline = registry.resolve(
            ["grounded_parser", "sql_engine", "free_summariser", "verifier"]
        )
        with pytest.raises(CompositionError) as excinfo:
            compose_properties(pipeline)
        assert "verifier" in str(excinfo.value)

    def test_established_at_tracks_origin(self, registry):
        pipeline = registry.resolve(["grounded_parser", "sql_engine"])
        verdict = compose_properties(pipeline)
        assert verdict.established_at[Property.GROUNDING] == "grounded_parser"
        assert verdict.established_at[Property.EXPLAINABILITY] == "sql_engine"

    def test_explain_positive_and_negative(self, registry):
        pipeline = registry.resolve(
            ["grounded_parser", "sql_engine", "free_summariser"]
        )
        verdict = compose_properties(pipeline)
        assert "holds" in verdict.explain(Property.GROUNDING)
        assert "lost at" in verdict.explain(Property.EXPLAINABILITY)
        assert "never established" in verdict.explain(Property.GUIDANCE)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(CompositionError):
            compose_properties([])

    def test_input_properties_can_be_propagated(self, registry):
        pipeline = registry.resolve(["answer_generator"])
        verdict = compose_properties(
            pipeline, input_properties=frozenset({Property.SOUNDNESS})
        )
        assert verdict.holds(Property.SOUNDNESS)


class TestEmpiricalAgreement:
    """The formal verdicts must agree with what the code actually does."""

    def test_engine_answers_carry_lineage_iff_explainable_pipeline(self, employees_db):
        # sql_engine provides explainability: lineage really is attached.
        result = employees_db.execute("SELECT name FROM employees WHERE id = 1")
        assert result.lineage and result.lineage[0]

    def test_summarised_answers_really_lose_lineage(self, employees_db):
        # A "free summariser" stage is any transformation that keeps only
        # text.  After it, invertibility is empirically impossible.
        result = employees_db.execute("SELECT COUNT(*) FROM employees")
        summary_text = f"the count is {result.scalar()}"
        # No machine-readable provenance survives in the summary:
        assert "employees" not in summary_text or "[" not in summary_text
