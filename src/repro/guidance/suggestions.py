"""Proactive suggestions: the system proposes useful next steps.

"A system can propose related data sources or additional computations and
ask for the user's judgment" (Section 3.1).  The engine inspects what the
conversation has touched and proposes, ranked:

* **related datasets** — FK neighbours of the current table, plus
  registry search hits for the current topic;
* **drill-downs** — group-bys over low-cardinality text columns not yet
  used;
* **analyses** — time-series decomposition when a date/year column plus a
  numeric measure are present (the Figure 1 "seasonality insights" turn),
  outlier checks over numeric columns.

Each suggestion carries a machine-actionable payload so the engine can
execute it directly if the user accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kg.schema_kg import SchemaKnowledgeGraph
from repro.sqldb.types import ColumnType


@dataclass
class Suggestion:
    """One proposed next step."""

    text: str
    kind: str  # "dataset" | "drill_down" | "analysis"
    score: float
    #: Machine-actionable payload, e.g. {"table": ..., "group_by": ...}.
    payload: dict = field(default_factory=dict)


class SuggestionEngine:
    """Ranks next-step proposals from schema structure and session state."""

    def __init__(self, schema_kg: SchemaKnowledgeGraph, max_group_cardinality: int = 25):
        self.schema_kg = schema_kg
        self.max_group_cardinality = max_group_cardinality

    def suggest(
        self,
        current_table: str | None,
        used_group_columns: set[str] | None = None,
        max_suggestions: int = 4,
    ) -> list[Suggestion]:
        """Proposals given the table in focus and what was already tried."""
        used = {column.lower() for column in (used_group_columns or set())}
        suggestions: list[Suggestion] = []
        if current_table is not None:
            suggestions.extend(self._related_datasets(current_table))
            suggestions.extend(self._drill_downs(current_table, used))
            suggestions.extend(self._analyses(current_table))
        suggestions.sort(key=lambda item: (-item.score, item.text))
        return suggestions[:max_suggestions]

    # -- proposal generators ----------------------------------------------------------

    def _related_datasets(self, table: str) -> list[Suggestion]:
        proposals: list[Suggestion] = []
        seen: set[str] = set()
        for source_table, source_column, target_table, target_column in (
            self.schema_kg.join_edges()
        ):
            other = None
            if source_table.lower() == table.lower():
                other = target_table
            elif target_table.lower() == table.lower():
                other = source_table
            if other is None or other.lower() in seen:
                continue
            seen.add(other.lower())
            proposals.append(
                Suggestion(
                    text=(
                        f"The {other.replace('_', ' ')} dataset links to "
                        f"{table.replace('_', ' ')} — shall I bring it in?"
                    ),
                    kind="dataset",
                    score=0.7,
                    payload={"table": other, "join_with": table},
                )
            )
        return proposals

    def _drill_downs(self, table: str, used: set[str]) -> list[Suggestion]:
        proposals: list[Suggestion] = []
        catalog_table = self.schema_kg.catalog.table(table)
        for column in catalog_table.schema:
            if column.type is not ColumnType.TEXT:
                continue
            if column.name.lower() in used:
                continue
            distinct = len(set(catalog_table.column(column.name)) - {None})
            if not (2 <= distinct <= self.max_group_cardinality):
                continue
            proposals.append(
                Suggestion(
                    text=(
                        f"Would you like a breakdown by "
                        f"{column.name.replace('_', ' ')} "
                        f"({distinct} groups)?"
                    ),
                    kind="drill_down",
                    score=0.6 + 0.2 / distinct,
                    payload={"table": table, "group_by": column.name},
                )
            )
        return proposals

    def _analyses(self, table: str) -> list[Suggestion]:
        proposals: list[Suggestion] = []
        catalog_table = self.schema_kg.catalog.table(table)
        time_columns = [
            column.name
            for column in catalog_table.schema
            if column.type is ColumnType.DATE
            or column.name.lower() in ("year", "month", "date", "period")
        ]
        time_like = {"id", "year", "month", "date", "period"}
        numeric_columns = [
            column.name
            for column in catalog_table.schema
            if column.type in (ColumnType.INTEGER, ColumnType.FLOAT)
            and column.name.lower() not in time_like
            and not column.name.lower().endswith("_index")
            and not column.name.lower().endswith("_id")
        ]
        if time_columns and numeric_columns:
            proposals.append(
                Suggestion(
                    text=(
                        f"This looks like a time series — I can analyse the "
                        f"trend and seasonality of "
                        f"{numeric_columns[0].replace('_', ' ')} over "
                        f"{time_columns[0].replace('_', ' ')}."
                    ),
                    kind="analysis",
                    score=0.85,
                    payload={
                        "table": table,
                        "analysis": "seasonality",
                        "time_column": time_columns[0],
                        "value_column": numeric_columns[0],
                    },
                )
            )
        if numeric_columns:
            proposals.append(
                Suggestion(
                    text=(
                        f"I can check {numeric_columns[0].replace('_', ' ')} "
                        "for outliers if that helps."
                    ),
                    kind="analysis",
                    score=0.5,
                    payload={
                        "table": table,
                        "analysis": "outliers",
                        "value_column": numeric_columns[0],
                    },
                )
            )
        return proposals
