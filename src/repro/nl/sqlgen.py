"""Compile a :class:`~repro.nl.grammar.QueryIntent` to the SQL AST.

The output is an AST, not text: validity is structural by construction
(no string templating), and the provenance layer stores the same AST as
query provenance.  ``to_sql()`` on the result gives canonical text.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.nl.grammar import QueryIntent
from repro.sqldb import ast


def _column_ref(column: str, table: str | None) -> ast.ColumnRef:
    return ast.ColumnRef(name=column, table=table)


def _literal(value) -> ast.Expression:
    # The parser reads ``-78`` (and ``-0.0``) as a minus applied to a
    # literal: build that, so the statement equals what its text parses to.
    if type(value) in (int, float) and repr(value).startswith("-"):
        return ast.UnaryOp("-", ast.Literal(-value))
    return ast.Literal(value)


def compile_intent(intent: QueryIntent) -> ast.SelectStatement:
    """Build the SELECT statement denoted by ``intent``."""
    qualify = intent.join is not None
    base_table = intent.table
    if (
        intent.group_table is not None
        and intent.group_table.lower() != base_table.lower()
        and intent.join is None
    ):
        raise TranslationError(
            f"group_table {intent.group_table!r} requires a join to reach it"
        )

    group_table = intent.group_table or (base_table if qualify else None)
    items: list[ast.SelectItem] = []
    for column in intent.group_by:
        items.append(
            ast.SelectItem(
                expression=_column_ref(column, group_table),
                alias=column,
            )
        )
    for column in intent.select_columns:
        if column in intent.group_by:
            continue
        items.append(
            ast.SelectItem(
                expression=_column_ref(column, base_table if qualify else None),
                alias=None,
            )
        )
    for aggregate in intent.aggregates:
        if aggregate.column is None:
            argument: ast.Expression = ast.Star()
        else:
            agg_table = aggregate.table or (base_table if qualify else None)
            argument = _column_ref(aggregate.column, agg_table)
        items.append(
            ast.SelectItem(
                expression=ast.AggregateCall(
                    name=aggregate.function, argument=argument
                ),
                alias=aggregate.output_name,
            )
        )
    if not items:
        raise TranslationError("intent compiles to an empty select list")

    joins: tuple[ast.Join, ...] = ()
    if intent.join is not None:
        other_table, this_column, other_column = intent.join
        condition = ast.BinaryOp(
            operator="=",
            left=_column_ref(this_column, base_table),
            right=_column_ref(other_column, other_table),
        )
        joins = (
            ast.Join(
                kind="INNER",
                table=ast.TableRef(name=other_table),
                condition=condition,
            ),
        )

    where: ast.Expression | None = None
    for spec in intent.filters:
        filter_table = spec.table or (base_table if qualify else None)
        if spec.operator == "LIKE":
            predicate: ast.Expression = ast.Like(
                operand=_column_ref(spec.column, filter_table),
                pattern=_literal(spec.value),
            )
        else:
            predicate = ast.BinaryOp(
                operator=spec.operator,
                left=_column_ref(spec.column, filter_table),
                right=_literal(spec.value),
            )
        where = predicate if where is None else ast.BinaryOp("AND", where, predicate)

    group_by = tuple(
        _column_ref(column, group_table) for column in intent.group_by
    )

    order_by: tuple[ast.OrderItem, ...] = ()
    if intent.order_by is not None:
        order_by = (
            ast.OrderItem(
                expression=ast.ColumnRef(name=intent.order_by.column),
                descending=intent.order_by.descending,
            ),
        )

    return ast.SelectStatement(
        items=tuple(items),
        from_table=ast.TableRef(name=base_table),
        joins=joins,
        where=where,
        group_by=group_by,
        order_by=order_by,
        limit=intent.limit,
        distinct=intent.distinct,
    )


def intent_to_sql(intent: QueryIntent) -> str:
    """Convenience: canonical SQL text of the intent."""
    return compile_intent(intent).to_sql()
