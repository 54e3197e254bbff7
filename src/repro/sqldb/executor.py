"""Query executor with built-in provenance capture.

The executor runs the plan that :mod:`repro.sqldb.planner` builds for a
:class:`~repro.sqldb.ast.SelectStatement` — predicates pushed below
joins, composite hash keys for INNER and LEFT joins — one operator at a
time: scan → join → filter → group/aggregate → having → sort → limit →
project.  ORDER BY keys are evaluated on the pre-projection rows, so the
select list is evaluated only on the rows that survive LIMIT/OFFSET (as
in sqlite3: a row the LIMIT cuts cannot raise).  DISTINCT must see every
output row, so it keeps project → distinct → sort → limit.  Every
expression is evaluated through :mod:`repro.sqldb.compile` closures.

A scan filters *positions* into its table's column memo with each WHERE
conjunct's batch form in turn; GROUP BY buckets them and folds value
lists (:func:`~repro.sqldb.aggregates.make_fold`), so a single-table
GROUP BY builds rows only for its output groups.  Joins, sort and
projection keep rows, built from positions on first read.  Where the
column-at-a-time path raises, the row loop's order is replayed, so the
error raised is its first one.

Each intermediate row carries

* **where-lineage** — the set of ``(table, row_id)`` base rows it derives
  from, and
* optionally a **how-provenance** polynomial (see
  :mod:`repro.provenance.semiring`), with joins multiplying and
  duplicate-merging/grouping adding.

Capturing lineage is what lets the explainability layer (P3) produce
lossless, invertible explanations, and the soundness layer (P4) re-derive
answers from their cited sources.  Scan provenance (singleton lineage
sets and how-variables) is interned per table version so repeated
queries share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat

from repro.errors import ExecutionError
from repro.obs.metrics import counter
from repro.obs.trace import current_span
from repro.provenance.semiring import Polynomial, row_variable
from repro.sqldb import ast
from repro.sqldb.aggregates import make_aggregator, make_fold
from repro.sqldb.catalog import Catalog
from repro.sqldb.compile import (
    BatchExpression,
    CompiledExpression,
    compile_batch,
    compile_many,
)
from repro.sqldb.expressions import BoundColumn, RowLayout, _as_bool
from repro.sqldb.planner import JoinPlan, SelectPlan, plan_select, split_conjuncts
from repro.sqldb.table import ColumnMemo, Table
from repro.sqldb.types import SQLValue

#: A where-lineage set: base rows as (table_name, row_id) pairs.
Lineage = frozenset[tuple[str, int]]

# Plan-choice tallies (handles cached at import; registry resets in place).
_PLANS = counter("sqldb.planner.plans")
_PUSHED_CONJUNCTS = counter("sqldb.planner.pushed_conjuncts")
_HASH_JOINS = counter("sqldb.planner.hash_joins")

EMPTY_LINEAGE: Lineage = frozenset()

#: What a WHERE/HAVING/ON value may be; anything else raises.
_TRUTH_TYPES = frozenset({bool, type(None)})

def _scan_provenance(
    table: Table, want_how: bool
) -> tuple[list[Lineage], list[Polynomial] | None]:
    """Shared singleton lineage sets (and how-variables) for every live row.

    Interned on the table instance itself (version-checked so any
    mutation invalidates), by position in :meth:`Table.column_memo`.
    """
    entry: tuple[int, list[Lineage], list[Polynomial] | None] | None = getattr(
        table, "_scan_provenance", None
    )
    if entry is not None and entry[0] == table.version:
        _version, lineages, hows = entry
        if not want_how or hows is not None:
            return lineages, hows
    name = table.name
    row_ids = table.column_memo().row_ids
    lineages = [frozenset({(name, row_id)}) for row_id in row_ids]
    hows = [Polynomial.var(row_variable(name, row_id)) for row_id in row_ids] if want_how else None
    object.__setattr__(table, "_scan_provenance", (table.version, lineages, hows))
    return lineages, hows


def _all_true(fns, clause: str) -> "CompiledExpression":
    """Fuse conjunct closures into one all-exactly-TRUE test, left to right.

    A value that is not TRUE, FALSE or NULL raises (``clause`` names it).
    """

    def keep(values):
        for conjunct_fn in fns:
            if _as_bool(conjunct_fn(values), clause) is not True:
                return False
        return True

    return keep


@dataclass
class ExecRow:
    """One intermediate row: values plus provenance annotations."""

    values: tuple[SQLValue, ...]
    lineage: Lineage
    how: Polynomial | None


@dataclass
class BaseRows:
    """A scan's surviving rows, as positions into its table's column memo."""

    memo: ColumnMemo
    positions: list[int]
    #: Interned scan provenance, by position (None: not captured).
    lineages: list[Lineage] | None
    hows: list[Polynomial] | None

    def exec_rows(self) -> list[ExecRow]:
        at = self.positions
        lineages = repeat(EMPTY_LINEAGE)
        if self.lineages is not None:
            lineages = map(self.lineages.__getitem__, at)
        hows = repeat(None) if self.hows is None else map(self.hows.__getitem__, at)
        return list(map(ExecRow, map(self.memo.rows.__getitem__, at), lineages, hows))


class Relation:
    """An operator output: a shared layout and a list of rows (straight from
    a scan, ``base`` positions whose rows are built on first read)."""

    def __init__(
        self, layout: RowLayout, rows: list[ExecRow] | None = None, base: BaseRows | None = None
    ):
        self.layout, self._rows, self.base = layout, rows, base

    @property
    def rows(self) -> list[ExecRow]:
        if self._rows is None:
            self._rows = self.base.exec_rows()
        return self._rows


@dataclass
class SelectResult:
    """The final output of executing a SELECT."""

    columns: list[str]
    rows: list[tuple[SQLValue, ...]]
    lineage: list[Lineage]
    how: list[Polynomial] | None
    scanned_rows: int


class SelectExecutor:
    """Executes SELECT statements against a catalog.

    ``capture_lineage`` controls where-provenance (cheap set unions);
    ``capture_how`` additionally maintains N[X] polynomials (costlier —
    benchmark E5 quantifies the overhead).
    """

    def __init__(
        self,
        catalog: Catalog,
        capture_lineage: bool = True,
        capture_how: bool = False,
    ):
        self._catalog = catalog
        self._capture_lineage = capture_lineage
        self._capture_how = capture_how
        self._scanned_rows = 0
        #: Shared per-query memo for uncorrelated subqueries.
        self._subquery_cache: dict[str, list[tuple]] = {}

    # -- public entry point ------------------------------------------------------

    def execute(self, statement: ast.SelectStatement) -> SelectResult:
        """Run ``statement`` (and any UNION arms) with provenance."""
        result = self._execute_single(statement)
        if statement.union is None:
            return result
        keep_duplicates, right_statement = statement.union
        right = self.execute(right_statement)
        if len(right.columns) != len(result.columns):
            raise ExecutionError(
                "UNION arms must have the same number of columns "
                f"({len(result.columns)} vs {len(right.columns)})"
            )
        rows = result.rows + right.rows
        lineage = result.lineage + right.lineage
        how = None
        if result.how is not None and right.how is not None:
            how = result.how + right.how
        if not keep_duplicates:
            merged: dict[tuple, int] = {}
            kept_rows: list[tuple] = []
            kept_lineage: list[Lineage] = []
            kept_how: list[Polynomial] | None = [] if how is not None else None
            for index, row in enumerate(rows):
                key = tuple(row)
                if key in merged:
                    target = merged[key]
                    kept_lineage[target] = kept_lineage[target] | lineage[index]
                    if kept_how is not None:
                        kept_how[target] = kept_how[target] + how[index]
                    continue
                merged[key] = len(kept_rows)
                kept_rows.append(row)
                kept_lineage.append(lineage[index])
                if kept_how is not None:
                    kept_how.append(how[index])
            rows, lineage, how = kept_rows, kept_lineage, kept_how
        return SelectResult(
            columns=result.columns,
            rows=rows,
            lineage=lineage,
            how=how,
            scanned_rows=result.scanned_rows + right.scanned_rows,
        )

    def _run_subquery(self, statement: ast.SelectStatement) -> list[tuple]:
        """Execute an uncorrelated subquery; lineage is not propagated
        (the subquery acts as a computed constant for the outer query)."""
        nested = SelectExecutor(
            self._catalog, capture_lineage=False, capture_how=False
        )
        result = nested.execute(statement)
        self._scanned_rows += result.scanned_rows
        return result.rows

    # -- expression compilation ----------------------------------------------------

    def _compile_values(
        self,
        expressions: list[ast.Expression],
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None = None,
    ) -> list[CompiledExpression]:
        """Per-row closures for ``expressions`` over ``layout`` tuples."""
        return compile_many(
            expressions,
            layout,
            aggregate_slots=aggregate_slots,
            subquery_runner=self._run_subquery,
            subquery_cache=self._subquery_cache,
        )

    def _compile_one(
        self,
        expression: ast.Expression,
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None = None,
    ) -> CompiledExpression:
        return self._compile_values([expression], layout, aggregate_slots)[0]

    def _compile_batch(
        self, expression: ast.Expression, layout: RowLayout, memo: ColumnMemo
    ) -> BatchExpression:
        return compile_batch(expression, layout, memo, self._run_subquery, self._subquery_cache)

    def _execute_single(self, statement: ast.SelectStatement) -> SelectResult:
        relation, aggregate_slots = self._rows_to_project(statement)
        items = self._expand_items(statement, relation.layout)
        item_fns = self._compile_values(
            [item.expression for item in items], relation.layout, aggregate_slots
        )
        if statement.distinct:
            key_rows, rows = self._distinct(relation.rows, item_fns)
        else:
            key_rows = rows = relation.rows
        if statement.order_by:
            keys = _order_keys(statement, items, relation.layout)
            key_fns = self._compile_values(keys, relation.layout, aggregate_slots)
            rows = _sort(rows, key_rows, statement.order_by, key_fns)
        start = statement.offset or 0
        stop = None if statement.limit is None else start + statement.limit
        rows = rows[start:stop]
        if statement.distinct:
            values = [row.values for row in rows]
        else:  # only the rows that survive LIMIT/OFFSET are projected
            values = [tuple(fn(row.values) for fn in item_fns) for row in rows]
        return SelectResult(
            columns=[item.output_name(position) for position, item in enumerate(items)],
            rows=values,
            lineage=[row.lineage for row in rows],
            how=[row.how for row in rows] if self._capture_how else None,
            scanned_rows=self._scanned_rows,
        )

    def _rows_to_project(
        self, statement: ast.SelectStatement
    ) -> tuple[Relation, dict[str, int]]:
        """FROM → WHERE → GROUP BY → HAVING: the relation the select list
        and ORDER BY keys are evaluated over, and its aggregate slots."""
        self._scanned_rows = 0
        self._subquery_cache = {}
        plan = plan_select(statement, self._catalog)
        hash_joins = sum(1 for join in plan.joins if join.is_hash_join)
        _PLANS.inc()
        _PUSHED_CONJUNCTS.inc(plan.pushed_conjuncts)
        _HASH_JOINS.inc(hash_joins)
        active = current_span()
        if active.recording:
            active.set_attribute("pushed_conjuncts", plan.pushed_conjuncts)
            active.set_attribute("hash_joins", hash_joins)
        relation = self._build_from_plan(plan)
        if plan.where is not None:
            relation = self._filter(relation, plan.where, "WHERE")
        aggregates = self._collect_aggregates(statement)
        if statement.group_by or aggregates:
            relation, aggregate_slots = self._group(relation, statement, aggregates)
        else:
            aggregate_slots = {}
        if statement.having is not None:
            if not statement.group_by and not aggregates:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            relation = self._filter(relation, statement.having, "HAVING", aggregate_slots)
        return relation, aggregate_slots

    # -- provenance helpers --------------------------------------------------------

    def _merge_join(self, left: ExecRow, right: ExecRow) -> tuple[Lineage, Polynomial | None]:
        lineage = left.lineage | right.lineage if self._capture_lineage else EMPTY_LINEAGE
        how = None
        if self._capture_how:
            assert left.how is not None and right.how is not None
            how = left.how * right.how
        return lineage, how

    def _merge_union(self, rows: list[ExecRow]) -> tuple[Lineage, Polynomial | None]:
        lineage: Lineage = EMPTY_LINEAGE
        if self._capture_lineage:
            lineage = EMPTY_LINEAGE.union(*[row.lineage for row in rows])
        how = None
        if self._capture_how:
            how = Polynomial.sum_all(row.how for row in rows)
        return lineage, how

    @staticmethod
    def _merge_base(base: BaseRows, at: list[int]) -> tuple[Lineage, Polynomial | None]:
        """:meth:`_merge_union` of a scan's rows at positions ``at``: one
        union of their interned lineage sets, which keep their atoms' hashes."""
        lineage = EMPTY_LINEAGE
        if base.lineages is not None:
            lineage = EMPTY_LINEAGE.union(*map(base.lineages.__getitem__, at))
        how = None if base.hows is None else Polynomial.sum_all(map(base.hows.__getitem__, at))
        return lineage, how

    # -- FROM / JOIN -------------------------------------------------------------

    def _build_from_plan(self, plan: SelectPlan) -> Relation:
        """FROM/JOIN evaluation driven by the logical plan."""
        if plan.base is None:
            layout = RowLayout([])
            one = Polynomial.one() if self._capture_how else None
            return Relation(layout, [ExecRow((), EMPTY_LINEAGE, one)])
        relation = self._scan(plan.base.table, plan.base.predicate)
        for join_plan in plan.joins:
            right = self._scan(join_plan.scan.table, join_plan.scan.predicate)
            if join_plan.kind == "CROSS":
                relation = self._cross_join(relation, right)
            elif join_plan.kind in ("INNER", "LEFT"):
                relation = self._planned_join(relation, right, join_plan)
            else:
                raise ExecutionError(f"unsupported join kind {join_plan.kind!r}")
        return relation

    def _scan(
        self, table_ref: ast.TableRef, predicate: ast.Expression | None = None
    ) -> Relation:
        table = self._catalog.table(table_ref.name)
        binding = table_ref.binding
        layout = RowLayout(
            [BoundColumn(binding=binding, name=column.name) for column in table.schema]
        )
        memo = table.column_memo()
        self._scanned_rows += len(memo.rows)
        positions = list(range(len(memo.rows)))
        if predicate is not None:
            positions = self._survivors(split_conjuncts(predicate), layout, memo, positions)
        # Interned scan provenance: the singleton lineage set (and the
        # how-variable) of a base row never changes while the table
        # version holds, so every query shares one object per row.
        lineages, hows = (
            _scan_provenance(table, self._capture_how)
            if self._capture_lineage or self._capture_how
            else (None, None)
        )
        if not self._capture_lineage:
            lineages = None
        if not self._capture_how:
            hows = None
        return Relation(layout, base=BaseRows(memo, positions, lineages, hows))

    def _survivors(
        self,
        conjuncts: list[ast.Expression],
        layout: RowLayout,
        memo: ColumnMemo,
        positions: list[int],
    ) -> list[int]:
        """The ``positions`` whose row makes every conjunct exactly TRUE (the
        rows the conjoined 3VL predicate keeps; see the planner's error-order
        note).  Each conjunct runs on the survivors of the one before: the
        (row, conjunct) pairs the fused row loop evaluates.  If one raises or
        yields a non-boolean, that row loop raises its own first error."""
        try:
            for conjunct in conjuncts:
                values = self._compile_batch(conjunct, layout, memo)(positions)
                if not _TRUTH_TYPES.issuperset(map(type, values)):
                    raise ExecutionError("WHERE requires a boolean")  # named below
                positions = list(compress(positions, values))
            return positions
        except Exception as exc:  # noqa: BLE001 - replayed below
            error = exc
        keep = _all_true(self._compile_values(conjuncts, layout), "WHERE")
        for values in memo.rows:
            keep(values)
        raise error

    def _cross_join(self, left: Relation, right: Relation) -> Relation:
        layout = left.layout.concat(right.layout)
        rows: list[ExecRow] = []
        for left_row in left.rows:
            for right_row in right.rows:
                lineage, how = self._merge_join(left_row, right_row)
                rows.append(
                    ExecRow(left_row.values + right_row.values, lineage, how)
                )
        return Relation(layout, rows)

    def _planned_join(
        self, left: Relation, right: Relation, join_plan: JoinPlan
    ) -> Relation:
        """INNER/LEFT join via composite hash keys plus a residual filter."""
        layout = left.layout.concat(right.layout)
        residual_fn = (
            _all_true([self._compile_one(join_plan.residual, layout)], "JOIN ON")
            if join_plan.residual is not None
            else None
        )
        is_left = join_plan.kind == "LEFT"
        null_right = (None,) * len(right.layout)
        rows: list[ExecRow] = []
        if not join_plan.is_hash_join:
            # No equi component: nested loop with the compiled condition.
            assert residual_fn is not None
            for left_row in left.rows:
                matched = False
                for right_row in right.rows:
                    values = left_row.values + right_row.values
                    if residual_fn(values):
                        lineage, how = self._merge_join(left_row, right_row)
                        rows.append(ExecRow(values, lineage, how))
                        matched = True
                if is_left and not matched:
                    rows.append(
                        ExecRow(
                            left_row.values + null_right,
                            left_row.lineage,
                            left_row.how,
                        )
                    )
            return Relation(layout, rows)
        left_positions = [
            left.layout.resolve(ref.name, ref.table) for ref in join_plan.left_keys
        ]
        right_positions = [
            right.layout.resolve(ref.name, ref.table) for ref in join_plan.right_keys
        ]
        if not left.rows or (not right.rows and not is_left):
            return Relation(layout, rows)
        buckets: dict[tuple, list[ExecRow]] = {}
        for right_row in right.rows:
            key = tuple(right_row.values[position] for position in right_positions)
            if None in key:
                continue  # NULL never equi-matches
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [right_row]
            else:
                bucket.append(right_row)
        for left_row in left.rows:
            key = tuple(left_row.values[position] for position in left_positions)
            matched = False
            bucket = buckets.get(key) if None not in key else None
            if bucket is not None:
                for right_row in bucket:
                    values = left_row.values + right_row.values
                    if residual_fn is not None and not residual_fn(values):
                        continue
                    lineage, how = self._merge_join(left_row, right_row)
                    rows.append(ExecRow(values, lineage, how))
                    matched = True
            if is_left and not matched:
                rows.append(
                    ExecRow(
                        left_row.values + null_right, left_row.lineage, left_row.how
                    )
                )
        return Relation(layout, rows)

    # -- WHERE / HAVING ------------------------------------------------------------

    def _filter(
        self,
        relation: Relation,
        predicate: ast.Expression,
        clause: str,
        aggregate_slots: dict[str, int] | None = None,
    ) -> Relation:
        # Independent closures per conjunct (same survivors as the
        # conjoined 3VL tree — WHERE/HAVING keep only TRUE rows).
        keep = _all_true(
            self._compile_values(
                split_conjuncts(predicate), relation.layout, aggregate_slots
            ),
            clause,
        )
        kept = [row for row in relation.rows if keep(row.values)]
        return Relation(relation.layout, kept)

    # -- GROUP BY / aggregates -------------------------------------------------------

    def _collect_aggregates(
        self, statement: ast.SelectStatement
    ) -> list[ast.AggregateCall]:
        found: dict[str, ast.AggregateCall] = {}
        expressions: list[ast.Expression] = [
            item.expression for item in statement.items
        ]
        if statement.having is not None:
            expressions.append(statement.having)
        expressions.extend(item.expression for item in statement.order_by)
        for expression in expressions:
            for aggregate in ast.collect_aggregates(expression):
                found.setdefault(aggregate.to_sql(), aggregate)
        return list(found.values())

    def _group(
        self,
        relation: Relation,
        statement: ast.SelectStatement,
        aggregates: list[ast.AggregateCall],
    ) -> tuple[Relation, dict[str, int]]:
        group_sqls = {expr.to_sql() for expr in statement.group_by}
        for item in statement.items:
            _validate_grouped(item.expression, group_sqls)
        if statement.having is not None:
            _validate_grouped(statement.having, group_sqls)
        for order_item in statement.order_by:
            _validate_grouped(
                order_item.expression, group_sqls, allow_bare_column=True
            )
        layout, base = relation.layout, relation.base
        if base is None:  # e.g. a join: its rows, through the row closures
            members, merge = relation.rows, self._merge_union
            first = lambda rows: rows[0].values  # noqa: E731

            def evaluate(expression):
                fn = self._compile_one(expression, layout)
                return lambda rows: [fn(row.values) for row in rows]

        else:  # straight from a scan: positions, through the batch forms
            members, merge = base.positions, partial(self._merge_base, base)
            first = lambda at: base.memo.rows[at[0]]  # noqa: E731

            def evaluate(expression):
                return self._compile_batch(expression, layout, base.memo)

        try:
            # Without GROUP BY: one group, empty over an empty input.
            groups: dict[tuple, list] = {} if statement.group_by else {(): list(members)}
            keys = [evaluate(expression)(members) for expression in statement.group_by]
            for key, member in zip(zip(*keys), members):
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [member]
                else:
                    bucket.append(member)
            arguments = [
                None if isinstance(aggregate.argument, ast.Star) else evaluate(aggregate.argument)
                for aggregate in aggregates
            ]
            folds = [make_fold(*_spec(aggregate)) for aggregate in aggregates] if groups else []
            aggregated = [
                tuple(fold(g if arg is None else arg(g)) for fold, arg in zip(folds, arguments))
                for g in groups.values()
            ]
        except Exception as exc:  # noqa: BLE001 - replayed below
            self._replay_group(relation, statement, aggregates)
            raise exc
        aggregate_slots = {
            aggregate.to_sql(): len(layout) + position
            for position, aggregate in enumerate(aggregates)
        }
        extended_layout = RowLayout(
            layout.columns
            + [
                BoundColumn(binding="#agg", name=f"agg_{position}")
                for position in range(len(aggregates))
            ]
        )
        absent = (None,) * len(layout)
        grouped_rows = [
            ExecRow((first(g) if g else absent) + aggregate_values, *merge(g))
            for g, aggregate_values in zip(groups.values(), aggregated)
        ]
        return Relation(extended_layout, grouped_rows), aggregate_slots

    def _replay_group(
        self,
        relation: Relation,
        statement: ast.SelectStatement,
        aggregates: list[ast.AggregateCall],
    ) -> None:
        """Group row at a time in the former order (every row's keys, then
        each group's rows, each row's aggregates in turn) to raise the row
        loop's first error."""
        key_fns = self._compile_values(list(statement.group_by), relation.layout)
        argument_fns = [
            None if isinstance(aggregate.argument, ast.Star)
            else self._compile_one(aggregate.argument, relation.layout)
            for aggregate in aggregates
        ]
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(tuple(fn(row.values) for fn in key_fns), []).append(row.values)
        for group in groups.values():
            accumulators = [make_aggregator(*_spec(aggregate)) for aggregate in aggregates]
            for values in group:
                for argument_fn, accumulator in zip(argument_fns, accumulators):
                    accumulator.step(1 if argument_fn is None else argument_fn(values))

    # -- projection -------------------------------------------------------------------

    def _expand_items(
        self, statement: ast.SelectStatement, layout: RowLayout
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in statement.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                if statement.group_by or self._collect_aggregates(statement):
                    raise ExecutionError("'*' cannot be used with GROUP BY/aggregates")
                for bound in layout.columns:
                    if expression.table is not None and (
                        bound.binding.lower() != expression.table.lower()
                    ):
                        continue
                    expanded.append(
                        ast.SelectItem(
                            expression=ast.ColumnRef(
                                name=bound.name, table=bound.binding
                            ),
                            alias=bound.name,
                        )
                    )
                continue
            expanded.append(item)
        if not expanded:
            raise ExecutionError("select list is empty after star expansion")
        return expanded

    # -- DISTINCT / ORDER ------------------------------------------------------------

    def _distinct(
        self, rows: list[ExecRow], item_fns: list[CompiledExpression]
    ) -> tuple[list[ExecRow], list[ExecRow]]:
        """Project ``rows`` and merge equal outputs, in first-seen order;
        also returns the first pre-projection row of each merged row (the
        row its ORDER BY keys are evaluated on), position for position."""
        groups: dict[tuple, list[ExecRow]] = {}
        for row in rows:
            values = tuple(item_fn(row.values) for item_fn in item_fns)
            groups.setdefault(values, []).append(row)
        merged = [
            ExecRow(values, *self._merge_union(members))
            for values, members in groups.items()
        ]
        return [members[0] for members in groups.values()], merged


def _sort(
    rows: list[ExecRow],
    key_rows: list[ExecRow],
    order_by: tuple[ast.OrderItem, ...],
    key_fns: list[CompiledExpression],
) -> list[ExecRow]:
    """``rows`` ordered by the ORDER BY keys of ``key_rows[i]``.

    One stable C-level sort per key, last key first, on
    ``(value is None, value)``: NULLs sort after every value in
    ascending order and before it under DESC, and equal keys
    (``True == 1`` included) keep their input order.  A key holding
    values that cannot be ordered against each other (text against a
    number) raises, whatever the other keys hold.  Keys come from
    pre-projection rows, so the caller cuts LIMIT/OFFSET before it
    evaluates the select list.
    """
    order = list(range(len(rows)))
    for order_item, key_fn in reversed(list(zip(order_by, key_fns))):
        values = [key_fn(row.values) for row in key_rows]
        keys = [(value is None, value) for value in values]
        try:
            order.sort(key=keys.__getitem__, reverse=order_item.descending)
        except TypeError as exc:
            kinds = {type(value).__name__ for value in values} - {"NoneType"}
            raise ExecutionError(
                f"cannot order {' against '.join(sorted(kinds))} "
                f"in ORDER BY {order_item.expression.to_sql()}"
            ) from exc
    return [rows[index] for index in order]


def _order_keys(
    statement: ast.SelectStatement, items: list[ast.SelectItem], layout: RowLayout
) -> list[ast.Expression]:
    """Each ORDER BY key as an expression over the pre-projection row.

    An integer literal is a 1-based output column, as in sqlite3 (a float
    such as ``2.0`` stays a constant); a bare output name or alias reads
    that select item (the last, if several share it).  Under DISTINCT a
    key must be a select item or read only columns some item outputs
    bare: merged rows differ in anything else, and ordering by their
    first row is the arbitrary representative GROUP BY refuses too.
    """
    expressions = [item.expression for item in items]
    by_name = {
        item.output_name(position).lower(): item.expression
        for position, item in enumerate(items)
    }
    outputs = {
        layout.resolve(expression.name, expression.table)
        for expression in expressions
        if statement.distinct and isinstance(expression, ast.ColumnRef)
    }
    keys: list[ast.Expression] = []
    for ordinal, order_item in enumerate(statement.order_by, start=1):
        key = order_item.expression
        if isinstance(key, ast.Literal) and type(key.value) is int:
            if not 1 <= key.value <= len(items):
                raise ExecutionError(
                    f"ORDER BY term {ordinal} out of range - "
                    f"should be between 1 and {len(items)}"
                )
            key = items[key.value - 1].expression
        elif isinstance(key, ast.ColumnRef) and key.table is None:
            key = by_name.get(key.name.lower(), key)
        if statement.distinct and key not in expressions and (
            ast.contains_aggregate(key)
            or any(
                layout.resolve(ref.name, ref.table) not in outputs
                for ref in ast.collect_column_refs(key)
            )
        ):
            raise ExecutionError(
                f"ORDER BY {order_item.expression.to_sql()} of a SELECT "
                "DISTINCT must read only its output columns"
            )
        keys.append(key)
    return keys


def _spec(aggregate: ast.AggregateCall) -> tuple[str, bool, bool]:
    """``(name, star, distinct)``, as :func:`make_aggregator` takes them."""
    return aggregate.name, isinstance(aggregate.argument, ast.Star), aggregate.distinct


def _validate_grouped(
    expression: ast.Expression,
    group_sqls: set[str],
    allow_bare_column: bool = False,
) -> None:
    """Check ``expression`` is evaluable over a grouped row.

    Every column reference must be covered by a GROUP BY expression or
    occur inside an aggregate — the strict SQL rule, which matters here
    because a silently-chosen representative value would be exactly the
    kind of unsound answer the paper warns about.
    """
    if expression.to_sql() in group_sqls:
        return
    if isinstance(expression, (ast.Literal, ast.AggregateCall)):
        return
    if isinstance(expression, ast.ColumnRef):
        if allow_bare_column:
            return
        raise ExecutionError(
            f"column {expression.to_sql()} must appear in GROUP BY "
            "or inside an aggregate"
        )
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' cannot be used with GROUP BY/aggregates")
    if isinstance(expression, ast.BinaryOp):
        _validate_grouped(expression.left, group_sqls, allow_bare_column)
        _validate_grouped(expression.right, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.UnaryOp):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.IsNull):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.InList):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        for item in expression.items:
            _validate_grouped(item, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.Between):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        _validate_grouped(expression.low, group_sqls, allow_bare_column)
        _validate_grouped(expression.high, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.Like):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        _validate_grouped(expression.pattern, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.FunctionCall):
        for arg in expression.args:
            _validate_grouped(arg, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            _validate_grouped(condition, group_sqls, allow_bare_column)
            _validate_grouped(value, group_sqls, allow_bare_column)
        if expression.default is not None:
            _validate_grouped(expression.default, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.ScalarSubquery):
        return  # uncorrelated: a constant with respect to the grouping
    if isinstance(expression, ast.InSubquery):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    raise ExecutionError(f"cannot validate grouped expression {expression!r}")
