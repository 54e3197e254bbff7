"""(question, gold intent, gold SQL, gold answer) generation.

Templates are compositional over a :class:`~repro.benchgen.schema_gen.
SchemaSpec` and every case's gold answer is *executed*, never annotated,
so labels cannot be wrong.  Template ids tag each case so benchmark
breakdowns by question type are possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.benchgen.schema_gen import SchemaSpec
from repro.nl.grammar import AggregateSpec, FilterSpec, OrderSpec, QueryIntent
from repro.nl.sqlgen import compile_intent

_AGG_WORDS = {
    "AVG": "average",
    "SUM": "total",
    "MAX": "maximum",
    "MIN": "minimum",
}


@dataclass
class QuestionCase:
    """One benchmark case."""

    question: str
    gold_intent: QueryIntent
    gold_sql: str
    gold_rows: list[tuple]
    gold_columns: list[str]
    template: str
    domain: str
    metadata: dict = field(default_factory=dict)


class QuestionGenerator:
    """Template instantiation over one generated database."""

    TEMPLATES = (
        "count_all",
        "count_category",
        "agg_measure",
        "agg_numeric_filter",
        "group_agg",
        "superlative",
        "list_filter",
        "top_n",
        "join_filter",
    )

    def __init__(self, spec: SchemaSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng

    # -- helpers -------------------------------------------------------------------

    def _execute(self, intent: QueryIntent) -> tuple[str, list[tuple], list[str]]:
        statement = compile_intent(intent)
        result = self.spec.database.execute_select(statement)
        return statement.to_sql(), list(result.rows), list(result.columns)

    def _case(
        self, question: str, intent: QueryIntent, template: str, **metadata
    ) -> QuestionCase:
        sql, rows, columns = self._execute(intent)
        return QuestionCase(
            question=question,
            gold_intent=intent,
            gold_sql=sql,
            gold_rows=rows,
            gold_columns=columns,
            template=template,
            domain=self.spec.domain,
            metadata=metadata,
        )

    def _pick(self, options: list):
        return options[int(self.rng.integers(0, len(options)))]

    def _measure_threshold(self, measure: str) -> float:
        values = [
            float(v)
            for v in self.spec.database.catalog.table(self.spec.entity_table)
            .column_values(measure)
            if v is not None
        ]
        quantile = self._pick([25, 50, 75])
        return round(float(np.percentile(values, quantile)), 1)

    # -- templates ------------------------------------------------------------------

    def generate(self, template: str) -> QuestionCase:
        """Instantiate one case of the named template."""
        return getattr(self, f"_template_{template}")()

    def generate_many(self, n: int, templates: list[str] | None = None) -> list[QuestionCase]:
        """Round-robin over templates until ``n`` cases exist."""
        pool = list(templates or self.TEMPLATES)
        cases = []
        index = 0
        while len(cases) < n:
            cases.append(self.generate(pool[index % len(pool)]))
            index += 1
        return cases

    def _template_count_all(self) -> QuestionCase:
        entity = self.spec.entity_table
        intent = QueryIntent(
            table=entity, aggregates=[AggregateSpec(function="COUNT", column=None)]
        )
        return self._case(f"how many {entity} are there", intent, "count_all")

    def _template_count_category(self) -> QuestionCase:
        entity = self.spec.entity_table
        value = self._pick(self.spec.categories + self.spec.text_values)
        if value in self.spec.categories:
            column = self.spec.category_column
        else:
            column = self.spec.text_column
        intent = QueryIntent(
            table=entity,
            aggregates=[AggregateSpec(function="COUNT", column=None)],
            filters=[FilterSpec(column=column, operator="=", value=value)],
        )
        return self._case(
            f"how many {entity} in {value}", intent, "count_category", value=value
        )

    def _template_agg_measure(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure = self._pick(self.spec.measures)
        function = self._pick(["AVG", "SUM", "MAX", "MIN"])
        intent = QueryIntent(
            table=entity, aggregates=[AggregateSpec(function=function, column=measure)]
        )
        word = _AGG_WORDS[function]
        return self._case(
            f"what is the {word} {measure} of {entity}", intent, "agg_measure"
        )

    def _template_agg_numeric_filter(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure, other = (
            self.spec.measures
            if len(self.spec.measures) >= 2
            else (self.spec.measures[0], self.spec.measures[0])
        )
        threshold = self._measure_threshold(other)
        operator, phrase = self._pick([(">", "above"), ("<", "below")])
        intent = QueryIntent(
            table=entity,
            aggregates=[AggregateSpec(function="AVG", column=measure)],
            filters=[FilterSpec(column=other, operator=operator, value=threshold)],
        )
        return self._case(
            f"what is the average {measure} of {entity} with {other} "
            f"{phrase} {threshold}",
            intent,
            "agg_numeric_filter",
            threshold=threshold,
        )

    def _template_group_agg(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure = self._pick(self.spec.measures)
        function = self._pick(["AVG", "SUM"])
        intent = QueryIntent(
            table=entity,
            aggregates=[AggregateSpec(function=function, column=measure)],
            group_by=[self.spec.category_column],
        )
        word = _AGG_WORDS[function]
        return self._case(
            f"what is the {word} {measure} for each {self.spec.category_column}",
            intent,
            "group_agg",
        )

    def _template_superlative(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure = self._pick(self.spec.measures)
        aggregate = AggregateSpec(function="SUM", column=measure)
        intent = QueryIntent(
            table=entity,
            aggregates=[aggregate],
            group_by=[self.spec.category_column],
            order_by=OrderSpec(column=aggregate.output_name, descending=True),
            limit=1,
        )
        return self._case(
            f"which {self.spec.category_column} has the highest total {measure}",
            intent,
            "superlative",
        )

    def _template_list_filter(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure = self._pick(self.spec.measures)
        threshold = self._measure_threshold(measure)
        intent = QueryIntent(
            table=entity,
            select_columns=[self.spec.category_column, measure],
            filters=[FilterSpec(column=measure, operator=">", value=threshold)],
        )
        return self._case(
            f"list the {self.spec.category_column} and {measure} of {entity} "
            f"with {measure} above {threshold}",
            intent,
            "list_filter",
            threshold=threshold,
        )

    def _template_top_n(self) -> QuestionCase:
        entity = self.spec.entity_table
        measure = self._pick(self.spec.measures)
        n = int(self._pick([2, 3, 5]))
        columns = self.spec.database.catalog.table(entity).column_names
        intent = QueryIntent(
            table=entity,
            select_columns=sorted(columns),
            order_by=OrderSpec(column=measure, descending=True),
            limit=n,
        )
        return self._case(
            f"top {n} {entity} by {measure}", intent, "top_n", n=n
        )

    def _template_join_filter(self) -> QuestionCase:
        entity = self.spec.entity_table
        dimension = self.spec.dimension_table
        dim_measure = self._pick(self.spec.dimension_measures)
        values = [
            float(v)
            for v in self.spec.database.catalog.table(dimension)
            .column_values(dim_measure)
        ]
        threshold = round(float(np.percentile(values, 50)), 1)
        intent = QueryIntent(
            table=entity,
            aggregates=[AggregateSpec(function="COUNT", column=None)],
            filters=[
                FilterSpec(
                    column=dim_measure, operator=">", value=threshold, table=dimension
                )
            ],
            join=(dimension, self.spec.category_column, self.spec.category_column),
        )
        return self._case(
            f"how many {entity} have {dim_measure} above {threshold}",
            intent,
            "join_filter",
            threshold=threshold,
        )
