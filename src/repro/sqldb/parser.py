"""Parser for the supported SQL dialect.

Grammar (informal)::

    statement   := (select | create_table | insert) [";"]
    select      := SELECT [DISTINCT] items [FROM table_ref join*]
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT n [OFFSET m]]
                   [UNION [ALL] select]
    join        := (INNER | LEFT [OUTER]) JOIN table_ref ON expr
                 | JOIN table_ref ON expr | CROSS JOIN table_ref
    create_table:= CREATE TABLE name "(" column_def ("," column_def)* ")"
    insert      := INSERT INTO name ["(" name ("," name)* ")"]
                   VALUES "(" expr_list ")" ("," "(" expr_list ")")*
    expr        := prefix infix*

Expressions are parsed by precedence climbing (Pratt, "Top down operator
precedence", POPL 1973): one loop reads an operand, then takes each
infix operator whose binding power is at least the loop's floor,
parsing its right operand with a higher floor.  Binding powers, loosest
first::

    1  OR                                     left-associative
    2  AND                                    left-associative
    3  NOT (prefix)
    4  = <> != < <= > >=  IS [NOT] NULL       non-associative; operands and
       [NOT] IN (...)  [NOT] LIKE             BETWEEN bounds are parsed
       [NOT] BETWEEN ... AND ...              at power 5
    5  + - ||                                 left-associative
    6  * / %                                  left-associative
    7  - + (prefix)

What follows an operand is capped too: only AND and OR after prefix
NOT, nothing at power 4 after a comparison (``a = b = c`` leaves
``= c`` as trailing input).  Prefix NOT needs a floor of at most 3, so
``a = NOT b`` is an unexpected token.

Every walker over the tree (rendering, compiling, execution) recurses once
per level, so an expression may nest at most :data:`MAX_EXPRESSION_DEPTH`
levels: each operand parsed (parenthesised, prefixed, a right operand or
an argument, subqueries included) and each infix operator chained onto
the left adds one.  The token that crosses the limit is a ``ParseError``.
"""

from __future__ import annotations

from repro.errors import ParseError, TokenizeError
from repro.sqldb import ast
from repro.sqldb.tokenizer import KEYWORDS, TokenType, lex

#: Aggregate function names recognised by the parser.
AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"})

_OR, _AND, _NOT, _COMPARE, _ADD, _MULTIPLY, _UNARY = range(1, 8)

#: Deepest nesting of one expression (see the module docstring).  Benchgen
#: gold SQL and its simulated mutations nest at most 7 levels; at 100 the
#: deepest tree still runs well inside Python's default recursion limit.
MAX_EXPRESSION_DEPTH = 100

#: Binding power of every infix operator, keyed on the token kind.  NOT is
#: infix only before IN, BETWEEN or LIKE.
_INFIX: dict[object, int] = {
    "OR": _OR,
    "AND": _AND,
    **dict.fromkeys(
        ("=", "<>", "!=", "<", "<=", ">", ">=", "IS", "IN", "BETWEEN", "LIKE", "NOT"),
        _COMPARE,
    ),
    **dict.fromkeys(("+", "-", "||"), _ADD),
    **dict.fromkeys(("*", "/", "%"), _MULTIPLY),
}

_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}

_IDENTIFIER = TokenType.IDENTIFIER


class _Parser:
    """Cursor over the tokens of one text (see :func:`lex`)."""

    def __init__(self, sql: str):
        self._kinds, self._values, self._positions = lex(sql)
        self._index = 0
        self._depth = 0

    # -- token stream helpers ------------------------------------------------

    def _accept(self, kind: object) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self._kinds[self._index] == kind:
            self._index += 1
            return True
        return False

    def _expect(self, kind: object, what: str | None = None) -> str:
        """Consume the next token, which must be of ``kind``; return its value."""
        if self._kinds[self._index] != kind:
            if what is None:
                what = kind if kind in KEYWORDS else repr(kind)
            raise self._error(f"expected {what}, found {{found}}")
        self._index += 1
        return self._values[self._index - 1]

    def _error(self, message: str) -> ParseError:
        """A ParseError at the next token; ``{found}`` in ``message`` is its text."""
        index = self._index
        return ParseError(
            message.format(found=repr(self._values[index])),
            position=self._positions[index],
        )

    def _nest(self) -> None:
        """One level deeper; past :data:`MAX_EXPRESSION_DEPTH` at the next token."""
        self._depth += 1
        if self._depth > MAX_EXPRESSION_DEPTH:
            raise self._error(f"expression nests deeper than {MAX_EXPRESSION_DEPTH}")

    def _end(self) -> None:
        if self._kinds[self._index] is not TokenType.EOF:
            raise self._error("unexpected trailing input: {found}")

    def _comma_list(self, parse_one) -> list:
        items = [parse_one()]
        while self._accept(","):
            items.append(parse_one())
        return items

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        kind = self._kinds[0]
        if kind == "SELECT":
            statement = self.parse_select()
        elif kind == "CREATE":
            statement = self._parse_create_table()
        elif kind == "INSERT":
            statement = self._parse_insert()
        else:
            raise self._error("expected SELECT, CREATE or INSERT, found {found}")
        self._accept(";")
        self._end()
        return statement

    def parse_select(self) -> ast.SelectStatement:
        self._expect("SELECT")
        distinct = self._accept("DISTINCT")
        items = self._comma_list(self._parse_select_item)
        from_table: ast.TableRef | None = None
        joins: list[ast.Join] = []
        if self._accept("FROM"):
            from_table = self._parse_table_ref()
            while (join := self._parse_join()) is not None:
                joins.append(join)
        where = self._expression() if self._accept("WHERE") else None
        group_by: tuple[ast.Expression, ...] = ()
        if self._accept("GROUP"):
            self._expect("BY")
            group_by = tuple(self._comma_list(self._expression))
        having = self._expression() if self._accept("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept("ORDER"):
            self._expect("BY")
            order_by = tuple(self._comma_list(self._parse_order_item))
        limit = None
        offset = None
        if self._accept("LIMIT"):
            limit = self._parse_nonnegative_int("LIMIT")
            if self._accept("OFFSET"):
                offset = self._parse_nonnegative_int("OFFSET")
        union: tuple[bool, ast.SelectStatement] | None = None
        if self._accept("UNION"):
            keep_duplicates = self._accept("ALL")
            union = (keep_duplicates, self.parse_select())
        return ast.SelectStatement(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            union=union,
        )

    def _parse_nonnegative_int(self, clause: str) -> int:
        if self._kinds[self._index] is not TokenType.INTEGER:
            raise self._error(f"{clause} requires an integer, found {{found}}")
        return self._parse_number()

    def _parse_number(self) -> int | float:
        """Consume a number token; a malformed one is a lexical error."""
        index = self._index
        self._index += 1
        value = self._values[index]
        try:
            if self._kinds[index] is TokenType.INTEGER:
                return int(value)
            return float(value)
        except ValueError:
            raise TokenizeError(
                f"malformed number {value!r}", position=self._positions[index]
            ) from None

    def _parse_alias(self, what: str) -> str | None:
        if self._accept("AS") or self._kinds[self._index] is _IDENTIFIER:
            return self._expect(_IDENTIFIER, what)
        return None

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self._expression()
        return ast.SelectItem(expression=expression, alias=self._parse_alias("alias"))

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect(_IDENTIFIER, "table name")
        return ast.TableRef(name=name, alias=self._parse_alias("table alias"))

    def _parse_join(self) -> ast.Join | None:
        if self._accept("CROSS"):
            self._expect("JOIN")
            return ast.Join(kind="CROSS", table=self._parse_table_ref(), condition=None)
        if self._accept("LEFT"):
            self._accept("OUTER")
            kind = "LEFT"
        elif self._accept("INNER") or self._kinds[self._index] == "JOIN":
            kind = "INNER"
        else:
            return None
        self._expect("JOIN")
        table = self._parse_table_ref()
        self._expect("ON")
        return ast.Join(kind=kind, table=table, condition=self._expression())

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._expression()
        descending = self._accept("DESC")
        if not descending:
            self._accept("ASC")
        return ast.OrderItem(expression=expression, descending=descending)

    def _parse_create_table(self) -> ast.CreateTableStatement:
        self._expect("CREATE")
        self._expect("TABLE")
        name = self._expect(_IDENTIFIER, "table name")
        self._expect("(")
        columns = self._comma_list(self._parse_column_def)
        self._expect(")")
        return ast.CreateTableStatement(name=name, columns=tuple(columns))

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect(_IDENTIFIER, "column name")
        type_name = self._expect(_IDENTIFIER, "column type")
        not_null = False
        primary_key = False
        while True:
            if self._accept("PRIMARY"):
                self._expect("KEY")
                primary_key = True
            elif self._accept("NOT"):
                self._expect("NULL")
                not_null = True
            else:
                break
        return ast.ColumnDef(
            name=name, type_name=type_name, not_null=not_null, primary_key=primary_key
        )

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect("INSERT")
        self._expect("INTO")
        table = self._expect(_IDENTIFIER, "table name")
        columns: list[str] = []
        if self._accept("("):
            columns = self._comma_list(lambda: self._expect(_IDENTIFIER, "column name"))
            self._expect(")")
        self._expect("VALUES")
        rows = self._comma_list(self._parse_parenthesised_list)
        return ast.InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_parenthesised_list(self) -> tuple[ast.Expression, ...]:
        self._expect("(")
        values = self._comma_list(self._expression)
        self._expect(")")
        return tuple(values)

    # -- expressions (precedence climbing) -------------------------------------

    def _expression(self, floor: int = 0) -> ast.Expression:
        """The longest expression whose infix operators bind at ``floor`` or more."""
        outer = self._depth
        self._nest()
        kind = self._kinds[self._index]
        ceiling = _MULTIPLY
        if kind == "NOT" and floor <= _NOT:
            self._index += 1
            left: ast.Expression = ast.UnaryOp("NOT", self._expression(_NOT))
            ceiling = _AND
        elif kind == "-" or kind == "+":
            self._index += 1
            left = self._expression(_UNARY)
            if kind == "-":
                left = ast.UnaryOp(operator="-", operand=left)
        else:
            left = self._parse_atom()
        while True:
            kind = self._kinds[self._index]
            power = _INFIX.get(kind)
            if power is None or not floor <= power <= ceiling:
                break
            negated = kind == "NOT"
            if negated:
                if self._kinds[self._index + 1] not in ("IN", "BETWEEN", "LIKE"):
                    break
                self._index += 1
                kind = self._kinds[self._index]
            self._nest()
            self._index += 1
            if power != _COMPARE:
                right = self._expression(power + 1)
                left = ast.BinaryOp(operator=kind, left=left, right=right)
                ceiling = power
                continue
            ceiling = _COMPARE - 1
            if kind == "IS":
                negated = self._accept("NOT")
                self._expect("NULL")
                left = ast.IsNull(operand=left, negated=negated)
            elif kind == "IN":
                self._expect("(")
                if self._kinds[self._index] == "SELECT":
                    left = ast.InSubquery(left, self.parse_select(), negated)
                else:
                    items = tuple(self._comma_list(self._expression))
                    left = ast.InList(left, items, negated)
                self._expect(")")
            elif kind == "BETWEEN":
                low = self._expression(_ADD)
                self._expect("AND")
                high = self._expression(_ADD)
                left = ast.Between(operand=left, low=low, high=high, negated=negated)
            elif kind == "LIKE":
                pattern = self._expression(_ADD)
                left = ast.Like(operand=left, pattern=pattern, negated=negated)
            else:
                operator = "<>" if kind == "!=" else kind
                right = self._expression(_ADD)
                left = ast.BinaryOp(operator=operator, left=left, right=right)
        self._depth = outer
        return left

    def _parse_atom(self) -> ast.Expression:
        kind = self._kinds[self._index]
        if kind is _IDENTIFIER:
            self._index += 1
            return self._parse_identifier_atom(self._values[self._index - 1])
        if kind is TokenType.INTEGER or kind is TokenType.FLOAT:
            return ast.Literal(self._parse_number())
        if kind is TokenType.STRING:
            self._index += 1
            return ast.Literal(self._values[self._index - 1])
        if kind in _CONSTANTS:
            self._index += 1
            return ast.Literal(_CONSTANTS[kind])
        if kind == "CASE":
            self._index += 1
            return self._parse_case()
        if kind == "*":
            self._index += 1
            return ast.Star()
        if kind == "(":
            self._index += 1
            if self._kinds[self._index] == "SELECT":
                expression: ast.Expression = ast.ScalarSubquery(self.parse_select())
            else:
                expression = self._expression()
            self._expect(")")
            return expression
        raise self._error("unexpected token {found} in expression")

    def _parse_case(self) -> ast.Expression:
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept("WHEN"):
            condition = self._expression()
            self._expect("THEN")
            branches.append((condition, self._expression()))
        if not branches:
            raise self._error("CASE requires at least one WHEN")
        default = self._expression() if self._accept("ELSE") else None
        self._expect("END")
        return ast.CaseWhen(branches=tuple(branches), default=default)

    def _parse_identifier_atom(self, name: str) -> ast.Expression:
        if self._accept("("):
            return self._parse_call(name.upper())
        if self._accept("."):
            if self._accept("*"):
                return ast.Star(table=name)
            column = self._expect(_IDENTIFIER, "column name")
            return ast.ColumnRef(name=column, table=name)
        return ast.ColumnRef(name=name)

    def _parse_call(self, name: str) -> ast.Expression:
        if name in AGGREGATE_NAMES:
            distinct = self._accept("DISTINCT")
            argument = ast.Star() if self._accept("*") else self._expression()
            self._expect(")")
            return ast.AggregateCall(name=name, argument=argument, distinct=distinct)
        args = []
        if self._kinds[self._index] != ")":
            args = self._comma_list(self._expression)
        self._expect(")")
        return ast.FunctionCall(name=name, args=tuple(args))


def parse_sql(sql: str) -> ast.Statement:
    """Parse ``sql`` into a single :class:`~repro.sqldb.ast.Statement`."""
    return _Parser(sql).parse_statement()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone SQL expression (used by tests and tooling)."""
    parser = _Parser(text)
    expression = parser._expression()
    parser._end()
    return expression
