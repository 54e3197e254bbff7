"""Tests for the expression compiler: semantics checked against sqlite3.

A compiled closure must compute what stdlib sqlite3 computes for the same
expression over the same row — same values, same NULL propagation —
except for the known dialect differences listed in
``tests/sqlite_oracle.py``, where the expected values are spelled out
here.  The laziness rules are ours alone: compile-time-detectable errors
(unknown column, constant division by zero) surface on the *first row*,
never at compile time, so an empty relation never reports them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqldb.compile import compile_expression, compile_many
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.parser import parse_sql
from tests.sqlite_oracle import sqlite_values


LAYOUT = RowLayout(
    [
        BoundColumn(binding="t", name="a"),
        BoundColumn(binding="t", name="b"),
        BoundColumn(binding="t", name="c"),
    ]
)

ROWS = [
    (1, 10, "x"),
    (2, None, "y"),
    (None, 30, None),
    (0, -5, "xyz"),
]


def _expr(sql: str):
    """Parse a bare expression by wrapping it in a SELECT."""
    return parse_sql(f"SELECT {sql}").items[0].expression


#: Expressions whose value differs between the dialects on ``ROWS``
#: (difference 1 in ``tests/sqlite_oracle.py``): our expected values.
_DIALECT_EXPECTED = {
    "b / 2": [5, None, 15, -2.5],  # sqlite3: -5 / 2 = -2
    "b % 3": [1, None, 0, 1],  # sqlite3: -5 % 3 = -2
}


def _check_parity(sql: str, rows=ROWS, layout=LAYOUT) -> None:
    """Compiled evaluation must agree with sqlite3 value-for-value."""
    compiled = compile_expression(_expr(sql), layout)
    expected = _DIALECT_EXPECTED.get(sql) or sqlite_values(
        sql, [bound.name for bound in layout.columns], rows
    )
    actual = [compiled(values) for values in rows]
    assert actual == expected, (sql, rows)
    for value, reference in zip(actual, expected):
        # sqlite3 returns booleans as 0/1; ours stay booleans.
        assert type(value) in (type(reference), bool), (sql, value, reference)


class TestColumnResolution:
    def test_index_resolved_at_compile_time(self):
        fn = compile_expression(_expr("t.b"), LAYOUT)
        assert fn((1, 2, 3)) == 2

    def test_unqualified_name(self):
        fn = compile_expression(_expr("c"), LAYOUT)
        assert fn((1, 2, "hello")) == "hello"

    def test_unknown_column_raises_lazily(self):
        # Compilation must succeed; the error fires on first evaluation,
        # so an empty relation (which never evaluates) never sees it.
        fn = compile_expression(_expr("nope"), LAYOUT)
        with pytest.raises(ExecutionError, match="nope"):
            fn((1, 2, 3))

    def test_ambiguous_column_raises_lazily(self):
        layout = RowLayout(
            [BoundColumn(binding="x", name="a"), BoundColumn(binding="y", name="a")]
        )
        fn = compile_expression(_expr("a"), layout)
        with pytest.raises(ExecutionError, match="ambiguous"):
            fn((1, 2))


class TestConstantFolding:
    def test_constant_arithmetic_folds(self):
        fn = compile_expression(_expr("1 + 2 * 3"), LAYOUT)
        assert fn(()) == 7

    def test_constant_division_by_zero_raises_lazily(self):
        fn = compile_expression(_expr("1 / 0"), LAYOUT)
        with pytest.raises(ExecutionError):
            fn((1, 2, 3))

    def test_constant_function_folds(self):
        fn = compile_expression(_expr("UPPER('abc')"), LAYOUT)
        assert fn(()) == "ABC"

    def test_folding_does_not_change_null_semantics(self):
        fn = compile_expression(_expr("NULL + 1"), LAYOUT)
        assert fn(()) is None


class TestOperatorSemantics:
    @pytest.mark.parametrize(
        "sql",
        [
            "a = 1",
            "a <> 2",
            "b > 0",
            "b >= 10",
            "a < 2",
            "b <= -5",
            "a + b",
            "a - b",
            "a * b",
            "b / 2",
            "b % 3",
            "-a",
            "NOT (a = 1)",
            "a = 1 AND b > 0",
            "a = 1 OR b > 0",
            "a IS NULL",
            "a IS NOT NULL",
            "a IN (1, 2)",
            "a IN (1, NULL)",
            "a NOT IN (2, 3)",
            "a BETWEEN 0 AND 2",
            "a NOT BETWEEN 0 AND 1",
            "c LIKE 'x%'",
            "c LIKE '_'",
            "c NOT LIKE '%y%'",
            "UPPER(c)",
            "LENGTH(c)",
            "COALESCE(a, b, 99)",
            "CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END",
            "CASE WHEN a > b THEN a ELSE b END",
            "a = 1 AND b = 10 AND c = 'x'",
        ],
    )
    def test_matches_interpreter(self, sql):
        _check_parity(sql)

    def test_and_short_circuits_on_false(self):
        # FALSE AND <error> → FALSE (sqlite3: FALSE AND NULL → FALSE).
        _check_parity("a < 0 AND (1 / 0) = 1", rows=[(1, 2, "x")])

    def test_or_short_circuits_on_true(self):
        _check_parity("a = 1 OR (1 / 0) = 1", rows=[(1, 2, "x")])

    def test_kleene_null_and_false(self):
        fn = compile_expression(_expr("b > 5 AND a = 99"), LAYOUT)
        # b NULL, a mismatched: NULL AND FALSE = FALSE
        assert fn((1, None, "x")) is False

    def test_type_mismatch_comparison_raises(self):
        # Dialect difference 3: sqlite3 orders numbers before text.
        assert sqlite_values("a > 'text'", ["a", "b", "c"], [(1, 2, "x")]) == [0]
        fn = compile_expression(_expr("a > 'text'"), LAYOUT)
        with pytest.raises(ExecutionError):
            fn((1, 2, "x"))

    def test_like_constant_pattern_precompiled(self):
        fn = compile_expression(_expr("c LIKE '%y%'"), LAYOUT)
        assert fn((1, 2, "xyz")) is True
        assert fn((1, 2, "abc")) is False
        assert fn((1, 2, None)) is None

    def test_like_null_constant_pattern(self):
        fn = compile_expression(_expr("c LIKE NULL"), LAYOUT)
        assert fn((1, 2, "x")) is None

    def test_like_nonconstant_pattern(self):
        fn = compile_expression(_expr("c LIKE c"), LAYOUT)
        assert fn((1, 2, "x%")) is True


class TestDialectDifferences:
    """Differences 1–3 of ``tests/sqlite_oracle.py``, pinned on both sides."""

    @pytest.mark.parametrize(
        "sql,ours,theirs",
        [("7 / 2", 3.5, 3), ("6 / 3", 2, 2), ("-7 / 2", -3.5, -3), ("-5 % 3", 1, -2)],
    )
    def test_integer_division_is_exact_or_float(self, sql, ours, theirs):
        assert compile_expression(_expr(sql), LAYOUT)(()) == ours
        assert sqlite_values(sql, ["a"], [(None,)]) == [theirs]

    def test_division_by_zero_raises_where_sqlite_gives_null(self):
        assert sqlite_values("a / 0", ["a"], [(1,)]) == [None]
        with pytest.raises(ExecutionError, match="division by zero"):
            compile_expression(_expr("a / 0"), LAYOUT)((1, 2, "x"))

    def test_like_is_case_sensitive(self):
        assert sqlite_values("c LIKE 'X%'", ["c"], [("xyz",)]) == [1]
        assert compile_expression(_expr("c LIKE 'X%'"), LAYOUT)((1, 2, "xyz")) is False
        assert compile_expression(_expr("c LIKE 'x%'"), LAYOUT)((1, 2, "xyz")) is True

    def test_boolean_is_not_a_number(self):
        assert sqlite_values("(a = 1) + 2", ["a"], [(1,)]) == [3]
        with pytest.raises(ExecutionError, match="numeric operands"):
            compile_expression(_expr("(a = 1) + 2"), LAYOUT)((1, 2, "x"))


class TestAggregateSlots:
    def test_aggregate_reads_slot(self):
        expression = _expr("COUNT(*)")
        fn = compile_expression(
            expression, LAYOUT, aggregate_slots={expression.to_sql(): 3}
        )
        assert fn((1, 2, "x", 42)) == 42

    def test_aggregate_outside_group_raises_lazily(self):
        fn = compile_expression(_expr("COUNT(*)"), LAYOUT)
        with pytest.raises(ExecutionError, match="grouped context"):
            fn((1, 2, "x"))


class TestSubqueries:
    def test_subquery_lazy_and_memoized(self):
        calls = []

        def runner(statement):
            calls.append(statement.to_sql())
            return [(7,)]

        cache: dict[str, list[tuple]] = {}
        fns = compile_many(
            [_expr("a = (SELECT 7)"), _expr("b = (SELECT 7)")],
            LAYOUT,
            subquery_runner=runner,
            subquery_cache=cache,
        )
        assert calls == []  # nothing runs at compile time
        assert fns[0]((7, 0, "x")) is True
        assert fns[1]((0, 7, "x")) is True
        assert len(calls) == 1  # shared memo: the subquery ran once

    def test_subquery_without_runner_raises(self):
        fn = compile_expression(_expr("a = (SELECT 1)"), LAYOUT)
        with pytest.raises(ExecutionError, match="not available"):
            fn((1, 2, "x"))

    def test_in_subquery_null_semantics(self):
        fn = compile_expression(
            _expr("a IN (SELECT 1)"),
            LAYOUT,
            subquery_runner=lambda statement: [(1,), (None,)],
        )
        assert fn((1, 0, "x")) is True
        assert fn((2, 0, "x")) is None  # non-member vs NULL in set → NULL
        assert fn((None, 0, "x")) is None


# -- randomized expression parity -------------------------------------------------
#
# A typed grammar: numeric expressions feed arithmetic, comparisons and
# BETWEEN; boolean expressions feed AND / OR / NOT.  A boolean never
# reaches a numeric operator, which is where the dialects part ways
# (difference 3 of tests/sqlite_oracle.py); division and modulo are left
# out for difference 1.

_NUM_ATOMS = st.sampled_from(["a", "b", "1", "2", "0", "NULL"])
_ARITHMETIC = st.sampled_from(["+", "-", "*"])
_COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def _numeric(draw, depth=2) -> str:
    if depth == 0 or draw(st.booleans()):
        return draw(_NUM_ATOMS)
    if draw(st.booleans()):
        operand = draw(_numeric(depth=depth - 1))
        return f"(-{operand})"
    left = draw(_numeric(depth=depth - 1))
    right = draw(_numeric(depth=depth - 1))
    return f"({left} {draw(_ARITHMETIC)} {right})"


@st.composite
def _boolean(draw, depth=2) -> str:
    kind = draw(st.integers(min_value=0, max_value=4 if depth > 0 else 2))
    if kind == 0:
        left = draw(_numeric(depth=depth))
        right = draw(_numeric(depth=depth))
        return f"({left} {draw(_COMPARISONS)} {right})"
    if kind == 1:
        operand = draw(st.one_of(_numeric(depth=depth), _boolean(depth=0)))
        return f"({operand} IS {'NOT ' if draw(st.booleans()) else ''}NULL)"
    if kind == 2:
        operand = draw(_numeric(depth=depth))
        low = draw(_NUM_ATOMS)
        high = draw(_NUM_ATOMS)
        return f"({operand} BETWEEN {low} AND {high})"
    if kind == 3:
        return f"(NOT {draw(_boolean(depth=depth - 1))})"
    left = draw(_boolean(depth=depth - 1))
    right = draw(_boolean(depth=depth - 1))
    return f"({left} {draw(st.sampled_from(['AND', 'OR']))} {right})"


def _expressions():
    return st.one_of(_numeric(), _boolean())


class TestRandomizedExpressionParity:
    @settings(max_examples=200, deadline=None)
    @given(sql=_expressions())
    def test_compiled_matches_interpreted(self, sql):
        _check_parity(sql)
