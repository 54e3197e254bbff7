"""Tests for expression semantics: NULL semantics, operators, layout."""

import pytest

from repro.errors import ExecutionError
from repro.sqldb.compile import compile_expression
from repro.sqldb.expressions import BoundColumn, RowLayout, like_to_regex
from repro.sqldb.parser import parse_expression


def evaluate(text, **columns):
    layout = RowLayout([BoundColumn(binding="t", name=name) for name in columns])
    return compile_expression(parse_expression(text), layout)(tuple(columns.values()))


class TestArithmetic:
    def test_basic(self):
        assert evaluate("1 + 2 * 3") == 7

    def test_integer_division_exact(self):
        assert evaluate("6 / 3") == 2

    def test_integer_division_inexact_gives_float(self):
        assert evaluate("7 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")

    def test_modulo(self):
        assert evaluate("7 % 3") == 1

    def test_modulo_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 % 0")

    def test_unary_minus(self):
        assert evaluate("-(2 + 3)") == -5

    def test_string_concat(self):
        assert evaluate("'a' || 'b'") == "ab"

    def test_concat_requires_strings(self):
        with pytest.raises(ExecutionError):
            evaluate("1 || 2")

    def test_arithmetic_with_column(self):
        assert evaluate("x * 2", x=21) == 42


class TestNullSemantics:
    def test_null_arithmetic(self):
        assert evaluate("x + 1", x=None) is None

    def test_null_comparison(self):
        assert evaluate("x = 1", x=None) is None

    def test_null_concat(self):
        assert evaluate("x || 'a'", x=None) is None

    def test_is_null(self):
        assert evaluate("x IS NULL", x=None) is True
        assert evaluate("x IS NULL", x=1) is False

    def test_is_not_null(self):
        assert evaluate("x IS NOT NULL", x=None) is False

    def test_kleene_and(self):
        assert evaluate("x AND TRUE", x=None) is None
        assert evaluate("x AND FALSE", x=None) is False

    def test_kleene_or(self):
        assert evaluate("x OR TRUE", x=None) is True
        assert evaluate("x OR FALSE", x=None) is None

    def test_not_null(self):
        assert evaluate("NOT x", x=None) is None

    def test_in_with_null_operand(self):
        assert evaluate("x IN (1, 2)", x=None) is None

    def test_in_with_null_item_no_match(self):
        # 3 IN (1, NULL) is UNKNOWN per SQL.
        assert evaluate("x IN (1, NULL)", x=3) is None

    def test_in_with_null_item_but_match(self):
        assert evaluate("x IN (3, NULL)", x=3) is True

    def test_not_in_with_null_item(self):
        assert evaluate("x NOT IN (1, NULL)", x=3) is None

    def test_between_null(self):
        assert evaluate("x BETWEEN 1 AND 2", x=None) is None

    def test_like_null(self):
        assert evaluate("x LIKE 'a%'", x=None) is None

    def test_case_no_match_no_else(self):
        assert evaluate("CASE WHEN x > 10 THEN 1 END", x=1) is None


class TestComparisons:
    def test_numeric_cross_type(self):
        assert evaluate("x = 2", x=2.0) is True

    def test_string_comparison(self):
        assert evaluate("x < 'b'", x="a") is True

    def test_mixed_type_comparison_fails(self):
        with pytest.raises(ExecutionError):
            evaluate("x = 1", x="a")

    def test_not_equal_synonyms(self):
        assert evaluate("1 <> 2") is True
        assert evaluate("1 != 2") is True

    @pytest.mark.parametrize(
        "text,expected",
        [("2 < 3", True), ("3 <= 3", True), ("4 > 5", False), ("5 >= 5", True)],
    )
    def test_ordering(self, text, expected):
        assert evaluate(text) is expected


class TestLike:
    def test_percent(self):
        assert evaluate("x LIKE 'a%'", x="abc") is True

    def test_underscore(self):
        assert evaluate("x LIKE 'a_c'", x="abc") is True
        assert evaluate("x LIKE 'a_c'", x="abbc") is False

    def test_not_like(self):
        assert evaluate("x NOT LIKE 'z%'", x="abc") is True

    def test_regex_escaping(self):
        assert like_to_regex("a.b").match("a.b")
        assert not like_to_regex("a.b").match("axb")

    def test_like_requires_strings(self):
        with pytest.raises(ExecutionError):
            evaluate("x LIKE 'a%'", x=1)


class TestBetweenAndIn:
    def test_between_inclusive(self):
        assert evaluate("x BETWEEN 1 AND 3", x=1) is True
        assert evaluate("x BETWEEN 1 AND 3", x=3) is True
        assert evaluate("x BETWEEN 1 AND 3", x=4) is False

    def test_not_between(self):
        assert evaluate("x NOT BETWEEN 1 AND 3", x=5) is True

    def test_in_match(self):
        assert evaluate("x IN (1, 2, 3)", x=2) is True

    def test_not_in_no_match(self):
        assert evaluate("x NOT IN (1, 2)", x=5) is True


class TestCase:
    def test_first_matching_branch_wins(self):
        result = evaluate(
            "CASE WHEN x > 5 THEN 'big' WHEN x > 1 THEN 'mid' ELSE 'small' END", x=3
        )
        assert result == "mid"

    def test_else(self):
        assert evaluate("CASE WHEN x > 5 THEN 1 ELSE 0 END", x=1) == 0


class TestLayout:
    def test_qualified_resolution(self):
        layout = RowLayout(
            [BoundColumn("a", "x"), BoundColumn("b", "x"), BoundColumn("b", "y")]
        )
        assert layout.resolve("x", "a") == 0
        assert layout.resolve("x", "b") == 1
        assert layout.resolve("y") == 2

    def test_ambiguous_unqualified(self):
        layout = RowLayout([BoundColumn("a", "x"), BoundColumn("b", "x")])
        with pytest.raises(ExecutionError):
            layout.resolve("x")

    def test_missing_column(self):
        layout = RowLayout([BoundColumn("a", "x")])
        with pytest.raises(ExecutionError):
            layout.resolve("nope")

    def test_case_insensitive(self):
        layout = RowLayout([BoundColumn("T", "Col")])
        assert layout.resolve("col", "t") == 0

    def test_concat(self):
        left = RowLayout([BoundColumn("a", "x")])
        right = RowLayout([BoundColumn("b", "y")])
        combined = left.concat(right)
        assert len(combined) == 2
        assert combined.resolve("y") == 1

    def test_has(self):
        layout = RowLayout([BoundColumn("a", "x")])
        assert layout.has("x")
        assert not layout.has("z")


class TestErrors:
    def test_boolean_context_requires_boolean(self):
        with pytest.raises(ExecutionError):
            evaluate("1 AND 2")

    def test_star_in_scalar_context(self):
        with pytest.raises(ExecutionError):
            evaluate("*")

    def test_aggregate_outside_group(self):
        with pytest.raises(ExecutionError):
            evaluate("COUNT(*)")
