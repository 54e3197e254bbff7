"""Rendering then parsing any SELECT gives the statement back.

``parse_sql(s.to_sql()) == s`` for statements built from every expression
node kind (CASE, BETWEEN, IN lists and subqueries, LIKE, IS NULL, unary
NOT and minus, ``||``, calls, aggregates, scalar subqueries) under joins,
UNION and every clause.  The strategies stay inside what the parser can
produce: non-negative numeric literals (a minus is a UnaryOp), upper-case
call names, ``<>`` rather than ``!=``, identifiers that are not keywords.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import ast
from repro.sqldb.parser import AGGREGATE_NAMES, parse_sql

NAMES = st.sampled_from(["a", "b", "price", "Qty", "t1", "_x", "région"])
FUNCTIONS = st.sampled_from(["UPPER", "LOWER", "ROUND", "COALESCE", "ABS"])
AGGREGATES = st.sampled_from(sorted(AGGREGATE_NAMES))
BINARY = st.sampled_from(
    ["OR", "AND", "=", "<>", "<", "<=", ">", ">=", "+", "-", "||", "*", "/", "%"]
)

LITERALS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(0, 10**12),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).filter(
        lambda value: math.copysign(1.0, value) > 0
    ),
    st.text(max_size=6),
).map(ast.Literal)

ATOMS = st.one_of(
    LITERALS,
    st.builds(ast.ColumnRef, NAMES, st.none() | NAMES),
    st.builds(ast.Star, st.none() | NAMES),
)

TABLES = st.builds(ast.TableRef, NAMES, st.none() | NAMES)


@st.composite
def selects(draw, expressions, union_depth=1):
    """A SELECT over ``expressions`` with any clause, joins and UNION arms."""
    maybe = st.none() | expressions
    from_table = draw(st.none() | TABLES)
    joins: tuple[ast.Join, ...] = ()
    if from_table is not None:
        joins = tuple(
            draw(
                st.lists(
                    st.one_of(
                        st.builds(ast.Join, st.sampled_from(["INNER", "LEFT"]), TABLES, expressions),
                        st.builds(ast.Join, st.just("CROSS"), TABLES, st.none()),
                    ),
                    max_size=2,
                )
            )
        )
    limit = draw(st.none() | st.integers(0, 100))
    union = None
    if union_depth and draw(st.booleans()):
        union = (draw(st.booleans()), draw(selects(expressions, union_depth - 1)))
    items = st.builds(ast.SelectItem, expressions, st.none() | NAMES)
    orders = st.builds(ast.OrderItem, expressions, st.booleans())
    return ast.SelectStatement(
        items=tuple(draw(st.lists(items, min_size=1, max_size=3))),
        from_table=from_table,
        joins=joins,
        where=draw(maybe),
        group_by=tuple(draw(st.lists(expressions, max_size=2))),
        having=draw(maybe),
        order_by=tuple(draw(st.lists(orders, max_size=2))),
        limit=limit,
        offset=None if limit is None else draw(st.none() | st.integers(0, 100)),
        distinct=draw(st.booleans()),
        union=union,
    )


SUBQUERIES = selects(ATOMS, union_depth=1)


def _compound(children):
    lists = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(ast.BinaryOp, BINARY, children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.InList, children, lists, st.booleans()),
        st.builds(ast.InSubquery, children, SUBQUERIES, st.booleans()),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.Like, children, children, st.booleans()),
        st.builds(ast.FunctionCall, FUNCTIONS, st.lists(children, max_size=3).map(tuple)),
        st.builds(ast.AggregateCall, AGGREGATES, children, st.booleans()),
        st.builds(
            ast.CaseWhen,
            st.lists(st.tuples(children, children), min_size=1, max_size=2).map(tuple),
            st.none() | children,
        ),
        st.builds(ast.ScalarSubquery, SUBQUERIES),
    )


EXPRESSIONS = st.recursive(ATOMS, _compound, max_leaves=10)


@given(selects(EXPRESSIONS))
@settings(max_examples=300, deadline=None)
def test_rendered_select_parses_back_to_itself(statement):
    assert parse_sql(statement.to_sql()) == statement


@given(EXPRESSIONS)
@settings(max_examples=300, deadline=None)
def test_every_expression_kind_round_trips_inside_a_where(expression):
    statement = ast.SelectStatement(
        items=(ast.SelectItem(ast.Star()),),
        from_table=ast.TableRef("t"),
        where=expression,
    )
    assert parse_sql(statement.to_sql()) == statement
