"""A simulated LLM with controllable hallucination behaviour.

The paper's premise is that LLMs are "statistical generators that may
hallucinate and cannot explicitly verify their answers", with confidence
scores that "may not accurately reflect the true probability of
correctness".  To *measure* what the CDA machinery buys, we need a
generator whose unreliability is a controlled variable — something a
hosted model cannot give us.  :class:`SimulatedLLM` provides exactly
that substitution (documented in DESIGN.md):

* Per question, the model either *knows* the answer (probability
  ``1 - error_rate``, decided by a deterministic hash of question+seed) or
  it does not.
* When it knows, samples reproduce the gold SQL with high per-sample
  fidelity; when it does not, every sample is an independently mutated
  *plausible but wrong* query — wrong column, wrong aggregate, perturbed
  literal, dropped filter, wrong table, or an outright syntax error.
* Its self-reported confidence is **deliberately miscalibrated**
  (overconfident regardless of correctness), which is what benchmark E3
  shows consistency-based UQ fixing.

Everything is deterministic given (question, seed, sample index), so
experiments are exactly reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import NLError, ParseError
from repro.sqldb import ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.parser import parse_sql

#: Mutation operator names (exposed in outputs for diagnostics).
MUTATIONS = (
    "wrong_column",
    "wrong_aggregate",
    "perturb_literal",
    "drop_filter",
    "wrong_table",
    "spurious_filter",
    "syntax_error",
)


@dataclass(frozen=True)
class LLMOutput:
    """One sampled generation: text entering the system, parsed on first use."""

    sql: str
    self_confidence: float
    #: Ground truth for experiments only — downstream components must not
    #: read it (that would be cheating; the verifier has to *earn* this).
    is_faithful: bool = field(repr=False, default=True)
    mutation: str | None = None

    @cached_property
    def statement(self) -> ast.SelectStatement:
        """The SELECT statement :attr:`sql` denotes; raises if there is none.

        A failure is not cached: every reader drops a failed output."""
        statement = parse_sql(self.sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ParseError("only SELECT is allowed here")
        return statement


def _parse_select(sql: str) -> ast.SelectStatement | None:
    """The SELECT statement ``sql`` denotes, or None (mutate it as text)."""
    try:
        statement = parse_sql(sql)
    except Exception:  # noqa: BLE001 - unparseable gold
        return None
    return statement if isinstance(statement, ast.SelectStatement) else None


def _stable_u64(*parts: str) -> int:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _rng_for(*parts: str) -> np.random.Generator:
    """``np.random.default_rng(seed)``'s generator, built without its dispatch."""
    return np.random.Generator(np.random.PCG64(_stable_u64(*parts)))


class SimulatedLLM:
    """Deterministic, noise-controllable NL2SQL generator."""

    def __init__(
        self,
        catalog: Catalog,
        error_rate: float = 0.3,
        sample_fidelity: float = 0.9,
        seed: int = 0,
        model_name: str = "sim-llm-1",
    ):
        if not (0.0 <= error_rate <= 1.0):
            raise NLError("error_rate must be in [0, 1]")
        if not (0.0 <= sample_fidelity <= 1.0):
            raise NLError("sample_fidelity must be in [0, 1]")
        self.catalog = catalog
        self.error_rate = error_rate
        self.sample_fidelity = sample_fidelity
        self.seed = seed
        self.model_name = model_name
        self.calls = 0

    # -- knowledge model ----------------------------------------------------------

    def knows(self, question: str) -> bool:
        """Whether the model 'knows' this question (fixed per question+seed)."""
        rng = _rng_for(self.model_name, str(self.seed), "knows", question)
        return bool(rng.random() < 1.0 - self.error_rate)

    # -- generation -----------------------------------------------------------------

    def generate_sql(
        self, question: str, gold_sql: str, n_samples: int = 1
    ) -> list[LLMOutput]:
        """Sample ``n_samples`` SQL generations for ``question``.

        ``gold_sql`` is the oracle answer the simulator perturbs — the
        stand-in for what a competent LLM *would* produce.  Sampling is
        deterministic per (question, seed, sample index).
        """
        outputs: list[LLMOutput] = []
        question_knows = self.knows(question)
        gold = None  # (statement or None,): parsed by the first mutation only
        for sample_index in range(n_samples):
            self.calls += 1
            rng = _rng_for(
                self.model_name,
                str(self.seed),
                "sample",
                question,
                str(sample_index),
            )
            if question_knows and rng.random() < self.sample_fidelity:
                sql = gold_sql
                faithful = True
                mutation = None
            else:
                gold = gold or (_parse_select(gold_sql),)
                sql, mutation = self._mutate(gold_sql, gold[0], rng)
                faithful = False
            confidence = self._self_confidence(question_knows, rng)
            outputs.append(
                LLMOutput(
                    sql=sql,
                    self_confidence=confidence,
                    is_faithful=faithful,
                    mutation=mutation,
                )
            )
        return outputs

    def _self_confidence(self, knows: bool, rng: np.random.Generator) -> float:
        """Overconfident self-report: barely depends on actual knowledge."""
        if knows:
            return float(rng.beta(9.0, 1.8))
        return float(rng.beta(8.0, 2.2))

    # -- mutation operators ------------------------------------------------------------

    def _mutate(
        self, gold_sql: str, statement: ast.SelectStatement | None, rng: np.random.Generator
    ) -> tuple[str, str]:
        """Produce a plausible-but-wrong variant of ``gold_sql``.

        ``statement`` is its parse (None if it is no SELECT), shared by every
        mutated sample of a call: AST nodes are frozen, operators build anew."""
        order = list(MUTATIONS)
        rng.shuffle(order)
        for mutation in order:
            if mutation == "syntax_error" or statement is None:
                mutated = self._syntax_error(gold_sql, rng)
            else:
                changed = getattr(self, f"_{mutation}")(statement, rng)
                mutated = None if changed is None else changed.to_sql()
            if mutated is not None and mutated != gold_sql:
                return mutated, mutation
        # Last resort: guaranteed-different syntax corruption.
        return gold_sql + " ORDER BY", "syntax_error"

    # The operator of mutation ``m`` is ``_m``: it returns a new statement,
    # or None when inapplicable.

    def _table_columns(self, table_name: str) -> list[str]:
        if table_name not in self.catalog:
            return []
        return self.catalog.table(table_name).column_names

    def _wrong_column(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        if statement.from_table is None:
            return None
        columns = self._table_columns(statement.from_table.name)
        if len(columns) < 2:
            return None
        refs = []
        for item in statement.items:
            refs.extend(ast.collect_column_refs(item.expression))
        if not refs:
            return None
        victim = refs[int(rng.integers(0, len(refs)))]
        alternatives = [c for c in columns if c.lower() != victim.name.lower()]
        if not alternatives:
            return None
        replacement = alternatives[int(rng.integers(0, len(alternatives)))]
        return _replace_column(statement, victim.name, replacement)

    def _wrong_aggregate(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        aggregates = []
        for item in statement.items:
            aggregates.extend(ast.collect_aggregates(item.expression))
        if not aggregates:
            return None
        victim = aggregates[int(rng.integers(0, len(aggregates)))]
        alternatives = [
            name for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")
            if name != victim.name
        ]
        # COUNT(*) can only become COUNT-like if the argument is a column.
        if isinstance(victim.argument, ast.Star):
            return None
        replacement = alternatives[int(rng.integers(0, len(alternatives)))]
        return _map_expressions(
            statement,
            lambda expr: (
                ast.AggregateCall(
                    name=replacement,
                    argument=expr.argument,
                    distinct=expr.distinct,
                )
                if expr == victim
                else expr
            ),
        )

    def _perturb_literal(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        if statement.where is None:
            return None
        literals = [
            node
            for node in ast.walk_expression(statement.where)
            if isinstance(node, ast.Literal) and node.value is not None
        ]
        if not literals:
            return None
        victim = literals[int(rng.integers(0, len(literals)))]
        value = victim.value
        if isinstance(value, bool):
            new_value: object = not value
        elif isinstance(value, (int, float)):
            scale = 1 + int(rng.integers(1, 5))
            new_value = value + scale if rng.random() < 0.5 else value - scale
        else:
            new_value = self._alternative_text_value(str(value), statement, rng)
            if new_value is None:
                return None
        replaced = [False]

        def swap(expr: ast.Expression) -> ast.Expression:
            if isinstance(expr, ast.Literal) and expr == victim and not replaced[0]:
                replaced[0] = True
                return ast.Literal(new_value)
            return expr

        return _map_expressions(statement, swap)

    def _alternative_text_value(
        self,
        value: str,
        statement: ast.SelectStatement,
        rng: np.random.Generator,
    ) -> str | None:
        """Another value from the same domain, so the wrong query still runs."""
        if statement.from_table is None:
            return None
        table_name = statement.from_table.name
        if table_name not in self.catalog:
            return None
        table = self.catalog.table(table_name)
        candidates: list[str] = []
        for column in table.schema:
            for cell in table.column(column.name):
                if isinstance(cell, str) and cell != value:
                    candidates.append(cell)
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]

    def _drop_filter(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        if statement.where is None:
            return None
        where = statement.where
        if isinstance(where, ast.BinaryOp) and where.operator == "AND":
            keep = where.left if rng.random() < 0.5 else where.right
            return _with_where(statement, keep)
        return _with_where(statement, None)

    def _wrong_table(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        if statement.from_table is None or statement.joins:
            return None
        current = statement.from_table.name
        alternatives = [
            name for name in self.catalog.table_names
            if name.lower() != current.lower()
            # The wrong table must still have the referenced columns for the
            # query to be *plausible*; otherwise constrained decoding would
            # trivially catch it every time.
            and self._covers_columns(name, statement)
        ]
        if not alternatives:
            return None
        replacement = alternatives[int(rng.integers(0, len(alternatives)))]
        return ast.SelectStatement(
            items=statement.items,
            from_table=ast.TableRef(name=replacement, alias=statement.from_table.alias),
            joins=statement.joins,
            where=statement.where,
            group_by=statement.group_by,
            having=statement.having,
            order_by=statement.order_by,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
        )

    def _covers_columns(self, table_name: str, statement: ast.SelectStatement) -> bool:
        table = self.catalog.table(table_name)
        needed: set[str] = set()
        for item in statement.items:
            needed.update(ref.name.lower() for ref in ast.collect_column_refs(item.expression))
        if statement.where is not None:
            needed.update(
                ref.name.lower() for ref in ast.collect_column_refs(statement.where)
            )
        for expr in statement.group_by:
            needed.update(ref.name.lower() for ref in ast.collect_column_refs(expr))
        available = {name.lower() for name in table.column_names}
        return needed <= available

    def _spurious_filter(
        self, statement: ast.SelectStatement, rng: np.random.Generator
    ) -> ast.SelectStatement | None:
        if statement.from_table is None:
            return None
        table_name = statement.from_table.name
        if table_name not in self.catalog:
            return None
        table = self.catalog.table(table_name)
        numeric_columns = [
            column.name
            for column in table.schema
            if column.type.value in ("INTEGER", "FLOAT")
        ]
        if not numeric_columns:
            return None
        column = numeric_columns[int(rng.integers(0, len(numeric_columns)))]
        values = [
            value for value in table.column_values(column) if value is not None
        ]
        # A random quantile and direction: hallucinated filters should be
        # *diverse*, otherwise independent wrong samples would agree and
        # fool consistency-based UQ (they don't in practice, so they must
        # not here either).
        if values:
            quantile = float(rng.uniform(10.0, 90.0))
            threshold = float(np.percentile(values, quantile))
        else:
            threshold = 0.0
        operator = ">" if rng.random() < 0.5 else "<"
        extra = ast.BinaryOp(
            operator=operator,
            left=ast.ColumnRef(name=column),
            right=ast.Literal(threshold),
        )
        if statement.where is None:
            new_where: ast.Expression = extra
        else:
            new_where = ast.BinaryOp("AND", statement.where, extra)
        return _with_where(statement, new_where)

    def _syntax_error(self, sql: str, rng: np.random.Generator) -> str:
        corruptions = [
            lambda text: text.replace("SELECT", "SELCT", 1),
            lambda text: text.replace("FROM", "FORM", 1),
            lambda text: text + " WHERE",
            lambda text: text.replace("(", "", 1) if "(" in text else text + ")",
        ]
        corruption = corruptions[int(rng.integers(0, len(corruptions)))]
        corrupted = corruption(sql)
        if corrupted == sql:
            corrupted = sql + " GROUP BY"
        return corrupted


# -- statement rewriting helpers ----------------------------------------------------


def _map_expr(expression: ast.Expression, transform) -> ast.Expression:
    """Bottom-up structural map over an expression tree."""
    if isinstance(expression, ast.BinaryOp):
        rebuilt: ast.Expression = ast.BinaryOp(
            operator=expression.operator,
            left=_map_expr(expression.left, transform),
            right=_map_expr(expression.right, transform),
        )
    elif isinstance(expression, ast.UnaryOp):
        rebuilt = ast.UnaryOp(
            operator=expression.operator,
            operand=_map_expr(expression.operand, transform),
        )
    elif isinstance(expression, ast.IsNull):
        rebuilt = ast.IsNull(
            operand=_map_expr(expression.operand, transform),
            negated=expression.negated,
        )
    elif isinstance(expression, ast.InList):
        rebuilt = ast.InList(
            operand=_map_expr(expression.operand, transform),
            items=tuple(_map_expr(item, transform) for item in expression.items),
            negated=expression.negated,
        )
    elif isinstance(expression, ast.Between):
        rebuilt = ast.Between(
            operand=_map_expr(expression.operand, transform),
            low=_map_expr(expression.low, transform),
            high=_map_expr(expression.high, transform),
            negated=expression.negated,
        )
    elif isinstance(expression, ast.Like):
        rebuilt = ast.Like(
            operand=_map_expr(expression.operand, transform),
            pattern=_map_expr(expression.pattern, transform),
            negated=expression.negated,
        )
    elif isinstance(expression, ast.FunctionCall):
        rebuilt = ast.FunctionCall(
            name=expression.name,
            args=tuple(_map_expr(arg, transform) for arg in expression.args),
        )
    elif isinstance(expression, ast.AggregateCall):
        rebuilt = ast.AggregateCall(
            name=expression.name,
            argument=_map_expr(expression.argument, transform),
            distinct=expression.distinct,
        )
    elif isinstance(expression, ast.CaseWhen):
        rebuilt = ast.CaseWhen(
            branches=tuple(
                (_map_expr(cond, transform), _map_expr(value, transform))
                for cond, value in expression.branches
            ),
            default=(
                _map_expr(expression.default, transform)
                if expression.default is not None
                else None
            ),
        )
    else:
        rebuilt = expression
    return transform(rebuilt)


def _map_expressions(
    statement: ast.SelectStatement, transform
) -> ast.SelectStatement:
    """Apply ``transform`` to every expression of a statement."""
    return ast.SelectStatement(
        items=tuple(
            ast.SelectItem(
                expression=_map_expr(item.expression, transform), alias=item.alias
            )
            for item in statement.items
        ),
        from_table=statement.from_table,
        joins=statement.joins,
        where=(
            _map_expr(statement.where, transform)
            if statement.where is not None
            else None
        ),
        group_by=tuple(_map_expr(expr, transform) for expr in statement.group_by),
        having=(
            _map_expr(statement.having, transform)
            if statement.having is not None
            else None
        ),
        order_by=tuple(
            ast.OrderItem(
                expression=_map_expr(item.expression, transform),
                descending=item.descending,
            )
            for item in statement.order_by
        ),
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )


def _replace_column(
    statement: ast.SelectStatement, old_name: str, new_name: str
) -> ast.SelectStatement:
    def swap(expression: ast.Expression) -> ast.Expression:
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.name.lower() == old_name.lower()
        ):
            return ast.ColumnRef(name=new_name, table=expression.table)
        return expression

    return _map_expressions(statement, swap)


def _with_where(
    statement: ast.SelectStatement, where: ast.Expression | None
) -> ast.SelectStatement:
    return ast.SelectStatement(
        items=statement.items,
        from_table=statement.from_table,
        joins=statement.joins,
        where=where,
        group_by=statement.group_by,
        having=statement.having,
        order_by=statement.order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )
