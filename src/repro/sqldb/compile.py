"""Expression compilation: AST + layout → a per-row closure or a batch form.

This is the only way SQL expressions are evaluated: by the executor's
operators (filter, join, group keys, projection, ORDER BY), by INSERT
value lists, and by the provenance verifier over cited source rows.
Walking the AST per row would re-dispatch on node type, re-resolve
column names and re-inspect literals for *every row*; compiling once per
operator is the "sharing of computation" the paper's holistic optimizer
(§3.2, P1 Efficiency) asks for.

:func:`compile_expression` walks the AST **once** per operator and lowers
it into a closure ``fn(values) -> SQLValue`` over the operator's value
tuples.  At compile time it

* resolves column references to tuple indexes (no per-row name lookup),
* folds constant subtrees to a single pre-computed value,
* pre-compiles constant LIKE patterns to regular expressions,
* pre-evaluates constant IN lists,
* specializes comparison / arithmetic / three-valued-logic dispatch so
  the per-row work is just the closures' bodies.

:func:`compile_batch` gives the *batch form* that the executor's operators
and the verifier run over a column memo (a table's
:class:`~repro.sqldb.table.ColumnMemo`, a join's pair memo or a grouping's
output): ``fn(positions) -> list``, one value per position.  Column
references, constants and ``column <op> constant`` comparisons run as
list kernels, the last only when the column's types cannot raise against
the constant (numbers against a number, else the constant's own type).
Every other node (AND/OR, BETWEEN, IN, LIKE, CASE, functions, subqueries,
a mixed-type column) maps its row closure over the positions.

The helpers in :mod:`repro.sqldb.expressions` implement NULL
propagation and Kleene logic.  Errors that depend only on the *query*
(unknown column, ambiguous name, constant division by zero) are detected
at compile time but raised lazily on the first row, so a query over an
empty relation never reports them.  Uncorrelated subqueries are never
folded eagerly; they stay lazy and memoised (per shared
``subquery_cache``) so a query that filters away every row never pays
for them.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable

from repro.errors import ExecutionError
from repro.sqldb import ast
from repro.sqldb.expressions import (
    RowLayout,
    _arithmetic,
    _as_bool,
    _compare,
    _is_number,
    _kleene_and,
    _kleene_or,
    like_to_regex,
)
from repro.sqldb.functions import call_scalar_function
from repro.sqldb.types import SQLValue

#: A compiled expression: maps an operator's value tuple to a SQL value.
CompiledExpression = Callable[[tuple], SQLValue]

#: A batch form: positions into one column memo -> a value per position.
BatchExpression = Callable[[list[int]], list[SQLValue]]

#: ``constant <op> column`` is ``column <reflected op> constant``.
_REFLECTED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_COMPARE_OPS: dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expression(
    expression: ast.Expression,
    layout: RowLayout,
    aggregate_slots: dict[str, int] | None = None,
    subquery_runner=None,
    subquery_cache: dict[str, list[tuple]] | None = None,
) -> CompiledExpression:
    """Lower ``expression`` into a closure over ``layout``-shaped tuples.

    ``subquery_cache`` may be shared between several compiled expressions
    of one query so an uncorrelated subquery runs at most once per query.
    """
    compiler = _Compiler(layout, aggregate_slots, subquery_runner, subquery_cache)
    fn, _is_const = compiler.compile(expression)
    return fn


def compile_many(
    expressions: list[ast.Expression],
    layout: RowLayout,
    aggregate_slots: dict[str, int] | None = None,
    subquery_runner=None,
    subquery_cache: dict[str, list[tuple]] | None = None,
) -> list[CompiledExpression]:
    """Compile several expressions sharing one subquery memo."""
    shared = subquery_cache if subquery_cache is not None else {}
    return [
        compile_expression(
            expression,
            layout,
            aggregate_slots=aggregate_slots,
            subquery_runner=subquery_runner,
            subquery_cache=shared,
        )
        for expression in expressions
    ]


def compile_batch(
    expression: ast.Expression,
    layout: RowLayout,
    memo,
    subquery_runner=None,
    subquery_cache: dict[str, list[tuple]] | None = None,
    aggregate_slots: dict[str, int] | None = None,
) -> BatchExpression:
    """The batch form of ``expression`` over ``memo``, a column memo laid
    out as ``layout``: the row closure's values (or first error) on the
    rows at the given positions."""
    compiler = _Compiler(layout, aggregate_slots, subquery_runner, subquery_cache)
    return compiler.compile_batch(expression, memo)


def _constant(value: SQLValue) -> tuple[CompiledExpression, bool]:
    return (lambda values: value), True


def _raiser(error: ExecutionError) -> tuple[CompiledExpression, bool]:
    """A closure that raises ``error`` when first evaluated.

    Used to defer compile-time-detectable errors to row-evaluation time,
    so empty inputs never observe them.
    """

    def fn(values):
        raise error

    return fn, False


class _Compiler:
    """Single-use compiler: one instance per :func:`compile_expression`."""

    def __init__(
        self,
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None,
        subquery_runner,
        subquery_cache: dict[str, list[tuple]] | None,
    ):
        self._layout = layout
        self._aggregate_slots = aggregate_slots or {}
        self._subquery_runner = subquery_runner
        self._subquery_cache = subquery_cache if subquery_cache is not None else {}

    # -- dispatch ---------------------------------------------------------------

    def compile(self, node: ast.Expression) -> tuple[CompiledExpression, bool]:
        """Compile ``node``; returns ``(closure, is_constant)``."""
        if isinstance(node, ast.Literal):
            return _constant(node.value)
        if isinstance(node, ast.ColumnRef):
            return self._compile_column(node)
        if isinstance(node, ast.AggregateCall):
            return self._compile_aggregate(node)
        if isinstance(node, ast.BinaryOp):
            return self._compile_binary(node)
        if isinstance(node, ast.UnaryOp):
            return self._compile_unary(node)
        if isinstance(node, ast.IsNull):
            return self._compile_is_null(node)
        if isinstance(node, ast.InList):
            return self._compile_in_list(node)
        if isinstance(node, ast.Between):
            return self._compile_between(node)
        if isinstance(node, ast.Like):
            return self._compile_like(node)
        if isinstance(node, ast.FunctionCall):
            return self._compile_function(node)
        if isinstance(node, ast.CaseWhen):
            return self._compile_case(node)
        if isinstance(node, ast.ScalarSubquery):
            return self._compile_scalar_subquery(node)
        if isinstance(node, ast.InSubquery):
            return self._compile_in_subquery(node)
        if isinstance(node, ast.Star):
            return _raiser(
                ExecutionError("'*' is only valid in a select list or COUNT(*)")
            )
        return _raiser(ExecutionError(f"cannot evaluate expression node {node!r}"))

    def compile_batch(self, node: ast.Expression, memo) -> BatchExpression:
        """The batch form of ``node`` over ``memo`` (see :func:`compile_batch`)."""
        if isinstance(node, ast.ColumnRef) and self._layout.has(node.name, node.table):
            getter = memo.columns[self._layout.resolve(node.name, node.table)].__getitem__
            return lambda positions: list(map(getter, positions))
        if isinstance(node, ast.BinaryOp) and node.operator in _COMPARE_OPS:
            kernel = self._compare_kernel(node, memo)
            if kernel is not None:
                return kernel
        fn, const = self.compile(node)
        if const:
            value = fn(())
            return lambda positions: [value] * len(positions)
        row = memo.rows.__getitem__
        return lambda positions: list(map(fn, map(row, positions)))

    def _compare_kernel(self, node: ast.BinaryOp, memo) -> BatchExpression | None:
        """``column <op> constant`` (either order) as a list kernel, or None
        when some value of the column could raise against the constant."""
        column, other, operator = node.left, node.right, node.operator
        if not isinstance(column, ast.ColumnRef):
            column, other, operator = other, column, _REFLECTED[operator]
        if not isinstance(column, ast.ColumnRef) or not self._layout.has(
            column.name, column.table
        ):
            return None
        other_fn, const = self.compile(other)
        if not const or (constant := other_fn(())) is None:
            return None
        index = self._layout.resolve(column.name, column.table)
        kinds = memo.types[index] - {type(None)}
        if not kinds <= ({int, float} if _is_number(constant) else {type(constant)}):
            return None
        op_fn = _COMPARE_OPS[operator]
        getter = memo.columns[index].__getitem__
        if kinds == memo.types[index]:  # no NULLs
            return lambda positions: list(map(op_fn, map(getter, positions), repeat(constant)))
        return lambda positions: [
            None if value is None else op_fn(value, constant)
            for value in map(getter, positions)
        ]

    def _fold(
        self, fn: CompiledExpression, const: bool
    ) -> tuple[CompiledExpression, bool]:
        """Collapse a constant closure to a pre-computed value.

        Errors raised while folding (e.g. constant division by zero) are
        re-raised lazily so empty inputs never observe them.
        """
        if not const:
            return fn, False
        try:
            return _constant(fn(()))
        except ExecutionError as error:
            return _raiser(error)

    # -- leaves ------------------------------------------------------------------

    def _compile_column(self, node: ast.ColumnRef) -> tuple[CompiledExpression, bool]:
        try:
            index = self._layout.resolve(node.name, node.table)
        except ExecutionError as error:
            return _raiser(error)
        return (lambda values: values[index]), False

    def _compile_aggregate(
        self, node: ast.AggregateCall
    ) -> tuple[CompiledExpression, bool]:
        key = node.to_sql()
        if key not in self._aggregate_slots:
            return _raiser(
                ExecutionError(f"aggregate {key} used outside of a grouped context")
            )
        slot = self._aggregate_slots[key]
        return (lambda values: values[slot]), False

    # -- operators ----------------------------------------------------------------

    def _compile_binary(self, node: ast.BinaryOp) -> tuple[CompiledExpression, bool]:
        left_fn, left_const = self.compile(node.left)
        right_fn, right_const = self.compile(node.right)
        operator = node.operator
        if operator == "AND":

            def fn_and(values):
                left = _as_bool(left_fn(values), "AND")
                if left is False:
                    return False  # short-circuit
                return _kleene_and(left, _as_bool(right_fn(values), "AND"))

            return self._fold(fn_and, left_const and right_const)
        if operator == "OR":

            def fn_or(values):
                left = _as_bool(left_fn(values), "OR")
                if left is True:
                    return True  # short-circuit
                return _kleene_or(left, _as_bool(right_fn(values), "OR"))

            return self._fold(fn_or, left_const and right_const)
        if operator in _COMPARE_OPS:
            # Dispatch resolved at compile time; the per-row body inlines
            # _compare's NULL/type rules (same outcomes, same messages).
            op_fn = _COMPARE_OPS[operator]

            def fn_compare(values):
                left = left_fn(values)
                right = right_fn(values)
                if left is None or right is None:
                    return None
                if type(left) is type(right) or (
                    _is_number(left) and _is_number(right)
                ):
                    return op_fn(left, right)
                raise ExecutionError(
                    f"cannot compare {type(left).__name__} "
                    f"with {type(right).__name__}"
                )

            return self._fold(fn_compare, left_const and right_const)

        def fn_arith(values):
            return _arithmetic(operator, left_fn(values), right_fn(values))

        return self._fold(fn_arith, left_const and right_const)

    def _compile_unary(self, node: ast.UnaryOp) -> tuple[CompiledExpression, bool]:
        operand_fn, const = self.compile(node.operand)
        if node.operator == "NOT":

            def fn_not(values):
                value = _as_bool(operand_fn(values), "NOT")
                if value is None:
                    return None
                return not value

            return self._fold(fn_not, const)
        if node.operator == "-":

            def fn_neg(values):
                value = operand_fn(values)
                if value is None:
                    return None
                if not _is_number(value):
                    raise ExecutionError(
                        f"unary minus requires a number, got {value!r}"
                    )
                return -value

            return self._fold(fn_neg, const)
        return _raiser(ExecutionError(f"unknown unary operator {node.operator!r}"))

    def _compile_is_null(self, node: ast.IsNull) -> tuple[CompiledExpression, bool]:
        operand_fn, const = self.compile(node.operand)
        if node.negated:
            return self._fold(lambda values: operand_fn(values) is not None, const)
        return self._fold(lambda values: operand_fn(values) is None, const)

    def _compile_in_list(self, node: ast.InList) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        compiled_items = [self.compile(item) for item in node.items]
        items_const = all(const for _fn, const in compiled_items)
        negated = node.negated
        if items_const:
            # Pre-evaluate the list once; membership still goes through
            # _compare so NULL and cross-type semantics match fn_in below.
            try:
                candidates = tuple(fn(()) for fn, _const in compiled_items)
            except ExecutionError as error:
                return _raiser(error)

            def fn_const_list(values):
                value = operand_fn(values)
                if value is None:
                    return None
                saw_null = False
                for candidate in candidates:
                    if candidate is None:
                        saw_null = True
                        continue
                    if _compare("=", value, candidate) is True:
                        return not negated
                if saw_null:
                    return None
                return negated

            return self._fold(fn_const_list, operand_const)
        item_fns = [fn for fn, _const in compiled_items]

        def fn_in(values):
            value = operand_fn(values)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                candidate = item_fn(values)
                if candidate is None:
                    saw_null = True
                    continue
                if _compare("=", value, candidate) is True:
                    return not negated
            if saw_null:
                return None
            return negated

        return fn_in, False

    def _compile_between(self, node: ast.Between) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        low_fn, low_const = self.compile(node.low)
        high_fn, high_const = self.compile(node.high)
        negated = node.negated

        def fn_between(values):
            value = operand_fn(values)
            low = low_fn(values)
            high = high_fn(values)
            result = _kleene_and(
                _compare(">=", value, low), _compare("<=", value, high)
            )
            if result is None:
                return None
            return (not result) if negated else result

        return self._fold(fn_between, operand_const and low_const and high_const)

    def _compile_like(self, node: ast.Like) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        pattern_fn, pattern_const = self.compile(node.pattern)
        negated = node.negated
        if pattern_const:
            try:
                pattern = pattern_fn(())
            except ExecutionError as error:
                return _raiser(error)
            if pattern is None:
                # NULL pattern: the result is NULL for every operand, but
                # the operand must still be evaluated (it may raise).
                def fn_null_pattern(values):
                    operand_fn(values)
                    return None

                return self._fold(fn_null_pattern, operand_const)
            if not isinstance(pattern, str):
                return _raiser(ExecutionError("LIKE requires string operands"))
            regex = like_to_regex(pattern)

            def fn_const_pattern(values):
                value = operand_fn(values)
                if value is None:
                    return None
                if not isinstance(value, str):
                    raise ExecutionError("LIKE requires string operands")
                matched = regex.match(value) is not None
                return (not matched) if negated else matched

            return self._fold(fn_const_pattern, operand_const)

        def fn_like(values):
            value = operand_fn(values)
            pattern = pattern_fn(values)
            if value is None or pattern is None:
                return None
            if not isinstance(value, str) or not isinstance(pattern, str):
                raise ExecutionError("LIKE requires string operands")
            matched = like_to_regex(pattern).match(value) is not None
            return (not matched) if negated else matched

        return fn_like, False

    def _compile_function(
        self, node: ast.FunctionCall
    ) -> tuple[CompiledExpression, bool]:
        compiled_args = [self.compile(arg) for arg in node.args]
        arg_fns = [fn for fn, _const in compiled_args]
        name = node.name

        def fn_call(values):
            return call_scalar_function(name, [fn(values) for fn in arg_fns])

        # Every registered scalar function is deterministic, so a call on
        # constant arguments is itself constant and safe to fold.
        return self._fold(fn_call, all(const for _fn, const in compiled_args))

    def _compile_case(self, node: ast.CaseWhen) -> tuple[CompiledExpression, bool]:
        branches = [
            (self.compile(condition), self.compile(value))
            for condition, value in node.branches
        ]
        default_fn, default_const = (
            self.compile(node.default)
            if node.default is not None
            else _constant(None)
        )
        branch_fns = [
            (condition_fn, value_fn)
            for (condition_fn, _cc), (value_fn, _vc) in branches
        ]

        def fn_case(values):
            for condition_fn, value_fn in branch_fns:
                if _as_bool(condition_fn(values), "CASE WHEN") is True:
                    return value_fn(values)
            return default_fn(values)

        const = default_const and all(
            condition_const and value_const
            for (_cf, condition_const), (_vf, value_const) in branches
        )
        return self._fold(fn_case, const)

    # -- subqueries ----------------------------------------------------------------

    def _run_subquery(self, statement: ast.SelectStatement) -> list[tuple]:
        if self._subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        key = statement.to_sql()
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self._subquery_runner(statement)
        return self._subquery_cache[key]

    def _compile_scalar_subquery(
        self, node: ast.ScalarSubquery
    ) -> tuple[CompiledExpression, bool]:
        # Lazy on purpose: a subquery under a filter that keeps zero rows
        # must never run.  The shared cache still makes it run-once.
        def fn_scalar(values):
            rows = self._run_subquery(node.statement)
            if not rows:
                return None
            if len(rows) > 1 or len(rows[0]) != 1:
                raise ExecutionError(
                    "scalar subquery must return at most one row with one column"
                )
            return rows[0][0]

        return fn_scalar, False

    def _compile_in_subquery(
        self, node: ast.InSubquery
    ) -> tuple[CompiledExpression, bool]:
        operand_fn, _const = self.compile(node.operand)
        negated = node.negated

        def fn_in_subquery(values):
            value = operand_fn(values)
            if value is None:
                return None
            rows = self._run_subquery(node.statement)
            if rows and len(rows[0]) != 1:
                raise ExecutionError("IN subquery must return exactly one column")
            saw_null = False
            for (candidate,) in rows:
                if candidate is None:
                    saw_null = True
                    continue
                if _compare("=", value, candidate) is True:
                    return not negated
            if saw_null:
                return None
            return negated

        return fn_in_subquery, False
