"""Tests for the NL model layer: intent, grammar, sqlgen, parser."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AmbiguousQuestionError, TranslationError
from repro.kg import DomainVocabulary, VocabularyTerm
from repro.nl import (
    AggregateSpec,
    FilterSpec,
    GroundedSemanticParser,
    GroundingConfig,
    IntentKind,
    OrderSpec,
    QueryIntent,
    classify_intent,
    compile_intent,
)
from repro.nl.nl2sql import _COMPARATOR_PATTERNS, _COMPARATORS
from repro.nl.sqlgen import intent_to_sql


class TestIntentClassification:
    @pytest.mark.parametrize(
        "utterance,expected",
        [
            ("how many employees are there", IntentKind.DATA_QUERY),
            ("what is the average salary per city", IntentKind.DATA_QUERY),
            ("give me an overview of available datasets", IntentKind.DATASET_DISCOVERY),
            ("describe the schema of this table", IntentKind.METADATA),
            ("show me the seasonality and trend", IntentKind.ANALYSIS),
            ("are there outliers in the costs", IntentKind.ANALYSIS),
            ("hello there", IntentKind.CHITCHAT),
        ],
    )
    def test_routing(self, utterance, expected):
        assert classify_intent(utterance).kind is expected

    def test_clarification_context_overrides(self):
        score = classify_intent("the barometer", expecting_clarification=True)
        assert score.kind is IntentKind.CLARIFICATION_REPLY

    def test_long_reply_not_clarification(self):
        long_question = "how many employees are in the engineering department of zurich"
        score = classify_intent(long_question, expecting_clarification=True)
        assert score.kind is IntentKind.DATA_QUERY

    def test_margin_exposed(self):
        assert classify_intent("seasonality trend outliers").margin > 0


class TestGrammar:
    def test_intent_requires_content(self):
        with pytest.raises(TranslationError):
            QueryIntent(table="t")

    def test_intent_requires_table(self):
        with pytest.raises(TranslationError):
            QueryIntent(table="", select_columns=["a"])

    def test_aggregate_validation(self):
        with pytest.raises(TranslationError):
            AggregateSpec(function="MEDIAN", column="x")
        with pytest.raises(TranslationError):
            AggregateSpec(function="SUM", column=None)

    def test_filter_validation(self):
        with pytest.raises(TranslationError):
            FilterSpec(column="x", operator="~", value=1)

    def test_signature_order_insensitive(self):
        a = QueryIntent(
            table="t",
            select_columns=["a", "b"],
            filters=[
                FilterSpec("x", ">", 1),
                FilterSpec("y", "=", "v"),
            ],
        )
        b = QueryIntent(
            table="T",
            select_columns=["b", "a"],
            filters=[
                FilterSpec("y", "=", "v"),
                FilterSpec("x", ">", 1),
            ],
        )
        assert a.signature() == b.signature()

    def test_signature_distinguishes_semantics(self):
        a = QueryIntent(table="t", aggregates=[AggregateSpec("SUM", "x")])
        b = QueryIntent(table="t", aggregates=[AggregateSpec("AVG", "x")])
        assert a.signature() != b.signature()

    def test_describe_mentions_pieces(self):
        intent = QueryIntent(
            table="employees",
            aggregates=[AggregateSpec("AVG", "salary")],
            group_by=["department"],
            filters=[FilterSpec("city", "=", "zurich")],
        )
        text = intent.describe()
        assert "average salary" in text
        assert "for each department" in text
        assert "zurich" in text


class TestSqlGen:
    def test_simple_aggregate(self):
        intent = QueryIntent(
            table="t", aggregates=[AggregateSpec(function="COUNT", column=None)]
        )
        assert intent_to_sql(intent) == "SELECT COUNT(*) AS count_all FROM t"

    def test_filters_anded(self):
        intent = QueryIntent(
            table="t",
            select_columns=["a"],
            filters=[FilterSpec("a", ">", 1), FilterSpec("b", "=", "x")],
        )
        sql = intent_to_sql(intent)
        assert "((a > 1) AND (b = 'x'))" in sql

    def test_group_order_limit(self):
        aggregate = AggregateSpec("SUM", "v")
        intent = QueryIntent(
            table="t",
            aggregates=[aggregate],
            group_by=["g"],
            order_by=OrderSpec(column=aggregate.output_name, descending=True),
            limit=1,
        )
        sql = intent_to_sql(intent)
        assert "GROUP BY g" in sql
        assert "ORDER BY sum_v DESC" in sql
        assert "LIMIT 1" in sql

    def test_join_qualifies_columns(self):
        intent = QueryIntent(
            table="emp",
            aggregates=[AggregateSpec("COUNT", None)],
            filters=[FilterSpec("budget", ">", 10, table="dept")],
            join=("dept", "department", "department"),
        )
        sql = intent_to_sql(intent)
        assert "INNER JOIN dept" in sql
        assert "emp.department = dept.department" in sql
        assert "dept.budget > 10" in sql

    def test_like_filter(self):
        intent = QueryIntent(
            table="t",
            select_columns=["a"],
            filters=[FilterSpec("a", "LIKE", "x%")],
        )
        assert "LIKE 'x%'" in intent_to_sql(intent)

    def test_generated_sql_parses(self, employees_db):
        intent = QueryIntent(
            table="employees",
            aggregates=[AggregateSpec("AVG", "salary")],
            group_by=["department"],
        )
        result = employees_db.execute(intent_to_sql(intent))
        assert len(result.rows) == 2


@pytest.fixture
def parser(employees_kg):
    vocabulary = DomainVocabulary()
    vocabulary.add_term(
        VocabularyTerm(
            name="staff",
            synonyms=["workforce", "personnel"],
            schema_bindings=["table:employees"],
        )
    )
    return GroundedSemanticParser(employees_kg, vocabulary)


class TestGroundedParser:
    def run(self, parser, employees_db, question):
        outcome = parser.parse(question)
        return outcome, employees_db.execute(outcome.sql)

    def test_count_all(self, parser, employees_db):
        _outcome, result = self.run(parser, employees_db, "how many employees are there")
        assert result.scalar() == 5

    def test_aggregate_with_measure(self, parser, employees_db):
        _outcome, result = self.run(
            parser, employees_db, "what is the average salary of employees"
        )
        assert result.scalar() == pytest.approx(85.0)

    def test_value_grounding(self, parser, employees_db):
        outcome, result = self.run(parser, employees_db, "how many employees in zurich")
        assert result.scalar() == 3
        assert any("value index" in note for note in outcome.grounding_notes)

    def test_group_by(self, parser, employees_db):
        _outcome, result = self.run(
            parser, employees_db, "what is the average salary for each department"
        )
        assert dict(result.rows)["engineering"] == pytest.approx(95.0)

    def test_superlative(self, parser, employees_db):
        _outcome, result = self.run(
            parser, employees_db, "which department has the highest total salary"
        )
        assert result.rows[0][0] == "engineering"

    def test_numeric_filter(self, parser, employees_db):
        _outcome, result = self.run(
            parser,
            employees_db,
            "list the name and salary of employees with salary above 75",
        )
        assert len(result.rows) == 3

    def test_cross_table_filter_adds_join(self, parser, employees_db):
        outcome, result = self.run(
            parser, employees_db, "how many employees have budget above 400"
        )
        assert "INNER JOIN" in outcome.sql
        assert result.scalar() == 2

    def test_synonym_table_resolution(self, parser, employees_db):
        _outcome, result = self.run(
            parser, employees_db, "what is the total salary of the personnel"
        )
        assert result.scalar() == pytest.approx(340.0)

    def test_top_n(self, parser, employees_db):
        _outcome, result = self.run(parser, employees_db, "top 2 employees by salary")
        assert len(result.rows) == 2

    def test_typo_recovery(self, parser, employees_db):
        _outcome, result = self.run(
            parser, employees_db, "what is the average salray of employees"
        )
        assert result.scalar() == pytest.approx(85.0)

    def test_column_ambiguity_raised_with_candidates(self):
        # Two near-identical measures: the parser must ask, not guess.
        from repro.kg import SchemaKnowledgeGraph
        from repro.sqldb import Database

        db = Database()
        db.execute("CREATE TABLE items (id INT, cost_usd FLOAT, cost_eur FLOAT)")
        db.execute("INSERT INTO items VALUES (1, 10.0, 9.0)")
        parser = GroundedSemanticParser(SchemaKnowledgeGraph(db.catalog))
        with pytest.raises(AmbiguousQuestionError) as excinfo:
            parser.parse("what is the average cost of items")
        assert len(excinfo.value.candidates) == 2

    def test_preferred_table_resolves_ambiguity(self, employees_kg, employees_db):
        parser = GroundedSemanticParser(employees_kg)
        outcome = parser.parse("list the department data", preferred_table="employees")
        assert outcome.intent.table == "employees"

    def test_untranslatable_raises(self, parser):
        with pytest.raises(TranslationError):
            parser.parse("what is the meaning of life")

    def test_empty_question(self, parser):
        with pytest.raises(TranslationError):
            parser.parse("   ")

    def test_grounding_notes_explain_decisions(self, parser, employees_db):
        outcome, _result = self.run(
            parser, employees_db, "how many employees in zurich"
        )
        assert any("table" in note for note in outcome.grounding_notes)

    def test_confidence_reflects_weakest_link(self, parser, employees_db):
        exact, _ = self.run(parser, employees_db, "how many employees are there")
        fuzzy, _ = self.run(parser, employees_db, "how many employes are there")
        assert exact.confidence >= fuzzy.confidence


class TestGroundingAblation:
    def test_value_index_off_loses_literal_filters(self, employees_kg):
        config = GroundingConfig(use_value_index=False)
        parser = GroundedSemanticParser(employees_kg, config=config)
        outcome = parser.parse("how many employees in zurich")
        assert "zurich" not in outcome.sql

    def test_schema_graph_off_loses_fuzzy_columns(self, employees_kg):
        config = GroundingConfig(use_schema_graph=False)
        parser = GroundedSemanticParser(employees_kg, config=config)
        with pytest.raises(TranslationError):
            parser.parse("what is the average salray of employees")

    def test_join_resolution_off_drops_cross_table_filter(self, employees_kg):
        config = GroundingConfig(use_join_resolution=False)
        parser = GroundedSemanticParser(employees_kg, config=config)
        outcome = parser.parse("how many employees have budget above 400")
        assert "JOIN" not in outcome.sql

    def test_vocabulary_off_loses_synonyms(self, employees_kg):
        # Without the vocabulary, a question that names the table only by
        # synonym ("personnel") cannot be grounded.
        parser = GroundedSemanticParser(employees_kg, vocabulary=None)
        with pytest.raises(TranslationError):
            parser.parse("how many personnel are there")

    def test_vocabulary_on_recovers_synonyms(self, parser, employees_db):
        outcome = parser.parse("how many personnel are there")
        assert employees_db.execute(outcome.sql).scalar() == 5


class TestCrossTableGrouping:
    @pytest.fixture
    def shop(self):
        from repro.datasets import build_ecommerce_registry

        domain = build_ecommerce_registry(seed=0)
        from repro.kg import SchemaKnowledgeGraph

        kg = SchemaKnowledgeGraph(domain.registry.database.catalog)
        return domain, GroundedSemanticParser(kg, domain.vocabulary)

    def test_group_by_joined_column(self, shop):
        domain, parser = shop
        outcome = parser.parse("what is the average amount per category")
        assert outcome.intent.group_table == "products"
        assert outcome.intent.join is not None
        result = domain.registry.database.execute(outcome.sql)
        assert len(result.rows) == 5  # five product categories

    def test_superlative_over_joined_group(self, shop):
        domain, parser = shop
        outcome = parser.parse("which category has the highest total amount")
        result = domain.registry.database.execute(outcome.sql)
        assert result.rows[0][0] == domain.ground_truth.top_revenue_category

    def test_same_table_group_has_no_group_table(self, parser, employees_db):
        outcome = parser.parse("what is the average salary for each department")
        assert outcome.intent.group_table is None
        assert outcome.intent.join is None

    def test_group_table_requires_join_in_sqlgen(self):
        from repro.errors import TranslationError
        from repro.nl.grammar import AggregateSpec, QueryIntent
        from repro.nl.sqlgen import compile_intent

        intent = QueryIntent(
            table="orders",
            aggregates=[AggregateSpec("SUM", "amount")],
            group_by=["category"],
            group_table="products",
        )
        with pytest.raises(TranslationError):
            compile_intent(intent)


class TestComparatorScan:
    """The anchored comparator patterns find exactly what the unanchored did."""

    #: Comparator words, numbers and separators, so texts hold many runs
    #: that almost (or actually) form a "<phrase> <comparator> <number>".
    PIECES = [
        "salary", "price_usd", "over", "under", "at least", "no more than",
        "greater than or equal to", "equal to", "exactly", "a", "5", "-3",
        "2.5", "1=1", " ", "  ", "\t", ".", ",", "-", "_",
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=30))
    def test_matches_unanchored_pattern(self, pieces):
        text = " ".join(pieces)
        for (pattern, operator), (phrase, expected_operator) in zip(
            _COMPARATOR_PATTERNS, _COMPARATORS
        ):
            assert operator == expected_operator
            old = re.compile(rf"([a-z_ ]+?)\s+(?:{phrase})\s+(-?\d+(?:\.\d+)?)")
            got = [(m.span(), m.groups()) for m in pattern.finditer(text)]
            want = [(m.span(), m.groups()) for m in old.finditer(text)]
            assert got == want


class TestNumericGrounding:
    """SUM/AVG measures and numeric literals bind only to numeric columns."""

    def test_average_of_text_column_is_refused(self, parser):
        with pytest.raises(TranslationError, match="numeric column"):
            parser.parse("what is the average name of employees")

    def test_min_max_of_text_column_still_parse(self, parser):
        outcome = parser.parse("what is the maximum name of employees")
        assert outcome.intent.aggregates[0].column == "name"

    def test_number_never_binds_to_text_column(self, parser, employees_db):
        outcome = parser.parse("list employees where city 1")
        assert not outcome.intent.filters
        assert len(employees_db.execute(outcome.sql).rows) == 5

    def test_number_binds_to_numeric_column(self, parser):
        outcome = parser.parse("list employees with salary above 75")
        assert [(f.column, f.operator, f.value) for f in outcome.intent.filters] == [
            ("salary", ">", 75)
        ]

    @pytest.mark.parametrize(
        "builder,question",
        [
            ("build_swiss_labour_registry", "what is the average rate"),
            ("build_ecommerce_registry", "show customers where country 1=1"),
        ],
    )
    def test_engine_answers_without_error(self, builder, question):
        import repro.datasets as datasets
        from repro.core.answer import AnswerKind
        from repro.core.config import ReliabilityConfig
        from repro.core.engine import CDAEngine

        domain = getattr(datasets, builder)(seed=7)
        engine = CDAEngine(
            domain.registry, vocabulary=domain.vocabulary, config=ReliabilityConfig()
        )
        answer = engine.ask(question)
        assert answer.kind is not AnswerKind.ERROR, answer.text
