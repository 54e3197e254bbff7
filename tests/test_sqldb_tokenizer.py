"""Tests for the SQL lexer."""

import pytest

from repro.errors import TokenizeError
from repro.errors import ParseError
from repro.sqldb import Database, ast
from repro.sqldb.parser import parse_expression, parse_sql
from repro.sqldb.tokenizer import Token, TokenType, tokenize


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select from where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        tokens = tokenize("SELECT MyColumn")
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "MyColumn"

    def test_eof_is_appended(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INTEGER
        assert token.value == "42"

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.type is TokenType.FLOAT

    def test_float_with_exponent(self):
        token = tokenize("1.5e-3")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == "1.5e-3"

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == ".5"

    def test_string_literal(self):
        token = tokenize("'hello world'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello world"

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_quoted_identifier(self):
        token = tokenize('"select"')[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "select"


class TestOperators:
    @pytest.mark.parametrize(
        "operator", ["=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"]
    )
    def test_operator_roundtrip(self, operator):
        token = tokenize(f"a {operator} b")[1]
        assert token.type is TokenType.OPERATOR
        assert token.value == operator

    def test_two_char_operator_not_split(self):
        assert values("a <= b") == ["a", "<=", "b"]

    def test_punctuation(self):
        tokens = tokenize("(a, b);")
        punct = [t.value for t in tokens if t.type is TokenType.PUNCTUATION]
        assert punct == ["(", ",", ")", ";"]


class TestCommentsAndWhitespace:
    def test_line_comment_is_skipped(self):
        assert values("SELECT a -- comment here\nFROM t") == ["SELECT", "a", "FROM", "t"]

    def test_trailing_comment_without_newline(self):
        assert values("SELECT 1 -- done") == ["SELECT", "1"]

    def test_whitespace_variants(self):
        assert values("SELECT\t1\n,\r 2") == ["SELECT", "1", ",", "2"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(TokenizeError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(TokenizeError):
            tokenize('"oops')

    def test_empty_quoted_identifier(self):
        with pytest.raises(TokenizeError):
            tokenize('""')

    def test_unknown_character(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("SELECT @x")
        assert excinfo.value.position == 7

    def test_positions_recorded(self):
        tokens = tokenize("SELECT abc")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestTokenHelpers:
    def test_matches_keyword(self):
        token = Token(TokenType.KEYWORD, "SELECT", 0)
        assert token.matches_keyword("SELECT", "FROM")
        assert not token.matches_keyword("FROM")

    def test_identifier_never_matches_keyword(self):
        token = Token(TokenType.IDENTIFIER, "SELECT", 0)
        assert not token.matches_keyword("SELECT")


class TestMalformedNumbers:
    """A number with no exponent digits, or a digit that int() rejects."""

    CASES = [
        ("SELECT 1e FROM orders", "1e", 7),
        ("SELECT 2e+ FROM orders", "2e+", 7),
        ("SELECT 1.5e- FROM orders", "1.5e-", 7),
        ("SELECT CASE WHEN x THEN 1else 2 END FROM orders", "1e", 24),
        ("SELECT \u00b2 FROM orders", "\u00b2", 7),
        ("SELECT 1\u00b2 FROM orders", "1\u00b2", 7),
        ("SELECT a FROM orders LIMIT \u00b2", "\u00b2", 27),
    ]

    @pytest.mark.parametrize("sql, literal, position", CASES)
    def test_parse_raises_tokenize_error_at_the_literal(self, sql, literal, position):
        with pytest.raises(TokenizeError) as excinfo:
            parse_sql(sql)
        assert excinfo.value.position == position
        assert sql.startswith(literal, position)
        assert str(excinfo.value) == f"malformed number {literal!r}"

    @pytest.mark.parametrize("sql, literal, position", CASES)
    def test_database_execute_raises_tokenize_error(self, sql, literal, position):
        database = Database()
        database.execute("CREATE TABLE orders (a INT, x BOOLEAN)")
        with pytest.raises(TokenizeError) as excinfo:
            database.execute(sql)
        assert excinfo.value.position == position

    def test_lexed_whole_by_shape(self):
        assert values("1else 2e+ 1\u00b2e5") == ["1e", "lse", "2e+", "1\u00b2e5"]
        assert kinds("1e 1\u00b2")[:2] == [TokenType.FLOAT, TokenType.INTEGER]

    def test_an_earlier_parse_error_comes_first(self):
        with pytest.raises(ParseError) as excinfo:
            parse_sql("SELECT FROM 1e")
        assert str(excinfo.value) == "unexpected token 'FROM' in expression"
        assert excinfo.value.position == 7


class TestUnicodeClasses:
    """Digits and letters follow str.isdigit / str.isalpha, as before."""

    def test_arabic_indic_digits_are_numbers(self):
        assert parse_expression("\u0663") == ast.Literal(3)
        assert parse_expression("\u0663.\u0665") == ast.Literal(3.5)

    def test_superscript_digit_continues_an_identifier(self):
        assert values("a\u00b2 b\u00bd") == ["a\u00b2", "b\u00bd"]
        assert kinds("a\u00b2")[0] is TokenType.IDENTIFIER

    def test_non_ascii_letters_start_words(self):
        assert values("\u00e9t\u00e9 r\u00e9gion") == ["\u00e9t\u00e9", "r\u00e9gion"]
        assert tokenize("\u017felect")[0] == Token(TokenType.KEYWORD, "SELECT", 0)

    def test_numeric_non_digit_cannot_start_a_token(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("SELECT \u00bd")
        assert excinfo.value.position == 7

    def test_unicode_space_separates_tokens(self):
        assert values("a\u3000b\u00a0c") == ["a", "b", "c"]

    def test_unterminated_string_after_an_escaped_quote(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("x 'a'' b")
        assert excinfo.value.position == 2
