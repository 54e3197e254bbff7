r"""SQL lexer.

Turns SQL text into a flat list of :class:`Token` objects.  One compiled
regular expression, :data:`_TOKEN`, is matched at each position; its
named groups give the token types, tried in this order::

    (skipped)    \s+ | --[^\n]*             whitespace, line comments
    WORD         [A-Za-z_]\w*               KEYWORD if its upper case is one,
                                            else IDENTIFIER
    FLOAT        (\d+\.\d* | \.\d+) ([eE][+-]?\d*)? | \d+[eE][+-]?\d*
    INTEGER      \d+
    SYMBOL       <> != <= >= || = < > + - * / %
                 ( ) , . ;                  PUNCTUATION; the rest OPERATOR
    STRING       '[^']*(''[^']*)*'(?!')     '' escapes a quote
    QUOTED       "[^"]*"                    an IDENTIFIER; keywords may be
                                            quoted this way
    BAD          any other character

Non-ASCII text is matched through a same-length copy in which each
character ``str.isdigit`` accepts reads ``0`` and each ``str.isalpha``
accepts reads ``a``: ``\d`` alone misses ``²``, and ``[^\W\d]`` would
let ``½`` start a word.  (``\w`` and ``\s`` already equal
``str.isalnum`` plus ``_`` and ``str.isspace``.)  Values come from the
original text.  A number is lexed by shape, so ``1e`` and ``²`` are
number tokens; the parser rejects them where it reads their value.

The tokenizer is intentionally strict: any character it does not
recognise raises :class:`~repro.errors.TokenizeError` with a position,
because silent recovery at the lexical level would undermine the
soundness story of everything downstream (a hallucinated token is still
a hallucination).

:func:`lex` gives the parser the same tokens as parallel lists of kinds,
values and positions, so no token object is built on the parse path.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import TokenizeError

#: Reserved words recognised by the parser.  Identifiers that collide with
#: these must be quoted with double quotes.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "AS",
        "JOIN",
        "INNER",
        "LEFT",
        "OUTER",
        "CROSS",
        "ON",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "LIKE",
        "BETWEEN",
        "TRUE",
        "FALSE",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "CREATE",
        "TABLE",
        "PRIMARY",
        "KEY",
        "INSERT",
        "INTO",
        "VALUES",
        "UNION",
        "ALL",
    }
)



class TokenType(enum.Enum):
    """Lexical categories produced by :func:`tokenize`."""

    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, *keywords: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in keywords


_TOKEN = re.compile(
    r"""
      \s+ | --[^\n]*
    | (?P<WORD>[A-Za-z_]\w*)
    | (?P<FLOAT>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d*)?|\d+[eE][+-]?\d*)
    | (?P<INTEGER>\d+)
    | (?P<SYMBOL><>|!=|<=|>=|\|\||[-=<>+*/%(),.;])
    | (?P<STRING>'[^']*(?:''[^']*)*'(?!'))
    | (?P<QUOTED>"[^"]*")
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_NON_ASCII = re.compile(r"[^\x00-\x7f]")

_PUNCTUATION = frozenset("(),.;")

_BAD_START = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


def _fold(match: re.Match) -> str:
    char = match[0]
    return "0" if char.isdigit() else "a" if char.isalpha() else char


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``, returning tokens terminated by a single EOF token."""
    return [
        Token(_type_of(kind), value, position)
        for kind, value, position in zip(*lex(sql))
    ]


def _type_of(kind: str | TokenType) -> TokenType:
    if isinstance(kind, TokenType):
        return kind
    if kind in KEYWORDS:
        return TokenType.KEYWORD
    return TokenType.PUNCTUATION if kind in _PUNCTUATION else TokenType.OPERATOR


def lex(sql: str) -> tuple[list[str | TokenType], list[str], list[int]]:
    """The tokens of ``sql`` as three parallel lists: kinds, values, positions.

    The kind of a keyword, operator or punctuation token is its value
    (``"SELECT"``, ``"<="``, ``","``); any other token's kind is its
    :class:`TokenType`.  The lists end with the EOF token.
    """
    text = sql if sql.isascii() else _NON_ASCII.sub(_fold, sql)
    kinds: list[str | TokenType] = []
    values: list[str] = []
    positions: list[int] = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        if group is None:
            continue
        start, end = match.span()
        value = sql[start:end]
        if group == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                kind = value = upper
            else:
                kind = TokenType.IDENTIFIER
        elif group == "SYMBOL":
            kind = value
        elif group == "STRING":
            kind = TokenType.STRING
            value = value[1:-1].replace("''", "'")
        elif group == "QUOTED":
            if end - start == 2:
                raise TokenizeError("empty quoted identifier", position=start)
            kind = TokenType.IDENTIFIER
            value = value[1:-1]
        elif group == "BAD":
            message = _BAD_START.get(value, f"unexpected character {value!r}")
            raise TokenizeError(message, position=start)
        else:
            kind = TokenType[group]
        kinds.append(kind)
        values.append(value)
        positions.append(start)
    kinds.append(TokenType.EOF)
    values.append("")
    positions.append(len(sql))
    return kinds, values, positions
