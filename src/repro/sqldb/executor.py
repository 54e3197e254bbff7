"""Query executor with built-in provenance capture.

The executor runs the plan that :mod:`repro.sqldb.planner` builds for a
:class:`~repro.sqldb.ast.SelectStatement` — predicates pushed below
joins, composite hash keys for INNER and LEFT joins — one operator at a
time: scan → join → filter → group/aggregate → having → sort → limit →
project.  Every expression is evaluated through :mod:`repro.sqldb.compile`
closures or their batch forms.

A relation stays *positions* into a column memo from scan to LIMIT.  A
scan filters positions into its table's column memo with each WHERE
conjunct's batch form in turn.  A join yields (left position, right
position) pairs, a :class:`PairMemo` whose columns are gathered on first
read; a chain of joins probes a pair memo on its left side.  WHERE above
a join, GROUP BY (which buckets positions and folds value lists,
:func:`~repro.sqldb.aggregates.make_fold`), the ORDER BY keys and the
select list run their batch forms over those positions.  ORDER BY keys
are evaluated on the pre-projection positions, so the select list runs
only on the positions that survive LIMIT/OFFSET (as in sqlite3: a row
the LIMIT cuts cannot raise).  DISTINCT must see every output row, so it
keeps project → distinct → sort → limit.  An :class:`ExecRow` is built
per output group and for DISTINCT and HAVING; where a batch form raises,
the row loop's order is replayed, so the error raised is its first one.

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
queries share it; a joined row's lineage and how are built when read,
and a group's lineage is one union of the distinct base lineage sets
its rows cite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Callable, Iterable, Sequence

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
class _Pairs:
    """Pair ``k``'s ``combine(left[lefts[k]], right[rights[k]])``, built when
    read: a pair memo's rows (concatenation), lineage (union) or how (product)."""

    left: Sequence
    right: Sequence
    lefts: list[int]
    rights: list[int]
    combine: Callable

    def __getitem__(self, k: int):
        return self.combine(self.left[self.lefts[k]], self.right[self.rights[k]])


class _Padded:
    """``items``, and ``pad`` at position ``len(items)``: a LEFT join's
    all-NULL right row (its values, empty lineage or how 1)."""

    def __init__(self, items: Sequence, pad):
        self.items, self.pad, self.end = items, pad, len(items)

    def __getitem__(self, k: int):
        return self.pad if k == self.end else self.items[k]


class _Columns(dict):
    """Column index → that column's values, gathered on first read."""

    def __init__(self, gather: Callable[[int], list]):
        super().__init__()
        self._gather = gather

    def __missing__(self, index: int) -> list:
        column = self[index] = self._gather(index)
        return column


class PairMemo:
    """A join's output as a column memo: position ``k`` is row ``lefts[k]``
    of the ``left`` memo beside row ``rights[k]`` of the ``right`` one.
    ``types`` concatenates both sides' (a superset of the pairs' own, so
    the compare kernels stay sound).  With ``padded``, right position
    ``len(right.rows)`` is a LEFT join's all-NULL row."""

    def __init__(self, left, right, lefts: list[int], rights: list[int], padded: bool = False):
        split, self.lefts, self.rights = len(left.types), lefts, rights
        right_types, right_rows = right.types, right.rows
        if padded:
            right_types = tuple(kinds | {type(None)} for kinds in right_types)
            right_rows = _Padded(right_rows, (None,) * len(right_types))
        self.types = left.types + right_types
        self.rows = _Pairs(left.rows, right_rows, lefts, rights, operator.add)

        def gather(index: int) -> list:
            if index < split:
                return list(map(left.columns[index].__getitem__, lefts))
            column = right.columns[index - split]
            return list(map((column + (None,) if padded else column).__getitem__, rights))

        self.columns = _Columns(gather)


class Relation:
    """An operator output: ``positions`` into ``memo`` (a table's column
    memo, a join's :class:`PairMemo` or a grouping's output) laid out as
    ``layout``, with the lineage and how of each memo position (None: not
    captured)."""

    def __init__(
        self,
        layout: RowLayout,
        memo,
        positions: list[int],
        lineages: Sequence[Lineage] | None = None,
        hows: Sequence[Polynomial] | None = None,
        rows: list[ExecRow] | None = None,
    ):
        self.layout, self.memo, self.positions = layout, memo, positions
        self.lineages, self.hows, self._rows = lineages, hows, rows

    def keep(self, positions: list[int], rows: list[ExecRow] | None = None) -> "Relation":
        """This relation at ``positions``, a subsequence of its own."""
        return Relation(self.layout, self.memo, positions, self.lineages, self.hows, rows)

    def lineage_at(self, at: list[int]) -> list[Lineage]:
        if self.lineages is None:
            return [EMPTY_LINEAGE] * len(at)
        return list(map(self.lineages.__getitem__, at))

    def how_at(self, at: list[int]) -> list[Polynomial] | None:
        return None if self.hows is None else list(map(self.hows.__getitem__, at))

    @property
    def rows(self) -> list[ExecRow]:
        """One :class:`ExecRow` per position, built on first read."""
        if self._rows is None:
            at = self.positions
            hows = repeat(None) if self.hows is None else map(self.hows.__getitem__, at)
            values = map(self.memo.rows.__getitem__, at)
            self._rows = list(map(ExecRow, values, self.lineage_at(at), hows))
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
        self,
        expression: ast.Expression,
        relation: Relation,
        aggregate_slots: dict[str, int] | None = None,
    ) -> BatchExpression:
        return compile_batch(
            expression, relation.layout, relation.memo,
            self._run_subquery, self._subquery_cache, aggregate_slots,
        )

    def _execute_single(self, statement: ast.SelectStatement) -> SelectResult:
        relation, aggregate_slots = self._rows_to_project(statement)
        items = self._expand_items(statement, relation.layout)
        expressions = [item.expression for item in items]
        if statement.distinct:
            item_fns = self._compile_values(expressions, relation.layout, aggregate_slots)
            firsts, merged = self._distinct(relation, item_fns)
        else:
            firsts = relation.positions
        order: Sequence[int] = range(len(firsts))
        if statement.order_by:
            keys = _order_keys(statement, items, relation.layout)
            key_fns = [self._compile_batch(key, relation, aggregate_slots) for key in keys]
            order = _sort(firsts, statement.order_by, key_fns)
        start = statement.offset or 0
        stop = None if statement.limit is None else start + statement.limit
        order = order[start:stop]
        if statement.distinct:
            rows = [merged[index] for index in order]
            values = [row.values for row in rows]
            lineage = [row.lineage for row in rows]
            how = [row.how for row in rows] if self._capture_how else None
        else:  # only the positions that survive LIMIT/OFFSET are projected
            at = list(map(firsts.__getitem__, order))
            values = self._project(relation, expressions, aggregate_slots, at)
            lineage, how = relation.lineage_at(at), relation.how_at(at)
        return SelectResult(
            columns=[item.output_name(position) for position, item in enumerate(items)],
            rows=values,
            lineage=lineage,
            how=how,
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
            relation = relation.keep(self._survivors(relation, plan.where, "WHERE"))
        aggregates = self._collect_aggregates(statement)
        if statement.group_by or aggregates:
            relation, aggregate_slots = self._group(relation, statement, aggregates)
        else:
            aggregate_slots = {}
        if statement.having is not None:
            if not statement.group_by and not aggregates:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            relation = self._filter(relation, statement.having, aggregate_slots)
        return relation, aggregate_slots

    def _rows_relation(self, layout: RowLayout, rows: list[ExecRow]) -> Relation:
        """``rows`` (a grouping's output) as a relation over their own memo."""
        values = tuple(row.values for row in rows)
        columns = tuple(zip(*values)) if values else ((),) * len(layout)
        types = tuple(frozenset(map(type, column)) for column in columns)
        memo = ColumnMemo(0, (), values, columns, types, {})
        hows = [row.how for row in rows] if self._capture_how else None
        lineages = [row.lineage for row in rows]
        return Relation(layout, memo, list(range(len(rows))), lineages, hows, rows)

    # -- provenance helpers --------------------------------------------------------

    def _merge_union(self, rows: list[ExecRow]) -> tuple[Lineage, Polynomial | None]:
        lineage: Lineage = EMPTY_LINEAGE
        if self._capture_lineage:
            lineage = EMPTY_LINEAGE.union(*[row.lineage for row in rows])
        how = None
        if self._capture_how:
            how = Polynomial.sum_all(row.how for row in rows)
        return lineage, how

    @staticmethod
    def _merge(relation: Relation, at: list[int]) -> tuple[Lineage, Polynomial | None]:
        """:meth:`_merge_union` of ``relation``'s rows at positions ``at``:
        one union of the distinct base lineage sets they cite (interned
        sets keep their atoms' hashes), and the sum of their how."""
        lineage = EMPTY_LINEAGE
        if relation.lineages is not None:
            lineage = EMPTY_LINEAGE.union(*_cited(relation.lineages, at))
        how = None
        if relation.hows is not None:
            how = Polynomial.sum_all(map(relation.hows.__getitem__, at))
        return lineage, how

    # -- FROM / JOIN -------------------------------------------------------------

    def _build_from_plan(self, plan: SelectPlan) -> Relation:
        """FROM/JOIN evaluation driven by the logical plan."""
        if plan.base is None:
            one = Polynomial.one() if self._capture_how else None
            return self._rows_relation(RowLayout([]), [ExecRow((), EMPTY_LINEAGE, one)])
        relation = self._scan(plan.base.table, plan.base.predicate)
        for join_plan in plan.joins:
            right = self._scan(join_plan.scan.table, join_plan.scan.predicate)
            if join_plan.kind not in ("CROSS", "INNER", "LEFT"):
                raise ExecutionError(f"unsupported join kind {join_plan.kind!r}")
            relation = self._join(relation, right, join_plan)
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
        # Interned scan provenance: the singleton lineage set (and the
        # how-variable) of a base row never changes while the table
        # version holds, so every query shares one object per row.
        lineages = hows = None
        if self._capture_lineage or self._capture_how:
            lineages, hows = _scan_provenance(table, self._capture_how)
        relation = Relation(
            layout, memo, list(range(len(memo.rows))),
            lineages if self._capture_lineage else None, hows if self._capture_how else None,
        )
        if predicate is None:
            return relation
        return relation.keep(self._survivors(relation, predicate, "WHERE"))

    def _survivors(
        self,
        relation: Relation,
        predicate: ast.Expression,
        clause: str,
        and_tree: bool = False,
    ) -> list[int]:
        """The positions of ``relation`` whose row makes ``predicate`` TRUE,
        one conjunct's batch form at a time.  A WHERE conjunct runs on the
        survivors of the one before: the (row, conjunct) pairs the fused
        row loop evaluates (see the planner's error-order note).  With
        ``and_tree`` (an ON residual) the predicate is one AND tree, which
        also evaluates a conjunct after a NULL one, so a conjunct runs on
        every position no earlier one made FALSE.  ``clause`` names the
        clause in the error.  If one raises or yields a non-boolean, that
        row loop raises its own first error."""
        conjuncts = split_conjuncts(predicate)
        positions = relation.positions
        try:
            unknown: set[int] = set()
            for conjunct in conjuncts:
                values = self._compile_batch(conjunct, relation)(positions)
                if not _TRUTH_TYPES.issuperset(map(type, values)):
                    raise ExecutionError(f"{clause} requires a boolean")  # named below
                if and_tree:
                    unknown.update(compress(positions, map(operator.is_, values, repeat(None))))
                    values = map(operator.is_not, values, repeat(False))
                positions = list(compress(positions, values))
            return [p for p in positions if p not in unknown] if unknown else positions
        except Exception as exc:  # noqa: BLE001 - replayed below
            error = exc
        tests = [predicate] if and_tree else conjuncts
        keep = _all_true(self._compile_values(tests, relation.layout), clause)
        for values in map(relation.memo.rows.__getitem__, relation.positions):
            keep(values)
        raise error

    def _join(self, left: Relation, right: Relation, join_plan: JoinPlan) -> Relation:
        """One INNER, LEFT or CROSS join step as (left, right) position
        pairs, left-major: the probe's bucket matches (or every pair, for
        CROSS and an ON with no equi key), then the ON residual's batch
        form over those candidates, then LEFT's padding pair, the right
        side's all-NULL row, for a left row that kept no pair."""
        layout = left.layout.concat(right.layout)
        joined = _paired(layout, left, right, *_candidates(left, right, join_plan))
        if join_plan.residual is not None:
            kept = self._survivors(joined, join_plan.residual, "JOIN ON", and_tree=True)
            joined = joined.keep(kept)
        if join_plan.kind != "LEFT":
            return joined
        lefts, rights = joined.memo.lefts, joined.memo.rights
        matches: dict[int, list[int]] = {}
        for k in joined.positions:
            matches.setdefault(lefts[k], []).append(rights[k])
        pad = [len(right.memo.rows)]  # the padding position (see _paired)
        lefts, rights = [], []
        for position in left.positions:
            found = matches.get(position, pad)
            lefts += repeat(position, len(found))
            rights += found
        return _paired(layout, left, right, lefts, rights, padded=True)

    # -- HAVING ----------------------------------------------------------------------

    def _filter(
        self,
        relation: Relation,
        predicate: ast.Expression,
        aggregate_slots: dict[str, int],
    ) -> Relation:
        # Independent closures per conjunct (same survivors as the
        # conjoined 3VL tree — HAVING keeps only TRUE rows).
        keep = _all_true(
            self._compile_values(
                split_conjuncts(predicate), relation.layout, aggregate_slots
            ),
            "HAVING",
        )
        mask = [keep(row.values) for row in relation.rows]
        return relation.keep(
            list(compress(relation.positions, mask)), list(compress(relation.rows, mask))
        )

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
        layout, members = relation.layout, relation.positions
        try:
            # Without GROUP BY: one group, empty over an empty input.
            groups: dict[tuple, list] = {} if statement.group_by else {(): list(members)}
            keys = [self._compile_batch(e, relation)(members) for e in statement.group_by]
            for key, member in zip(zip(*keys), members):
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [member]
                else:
                    bucket.append(member)
            arguments = [
                None if isinstance(aggregate.argument, ast.Star)
                else self._compile_batch(aggregate.argument, relation)
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
        row = relation.memo.rows.__getitem__
        grouped_rows = [
            ExecRow((row(g[0]) if g else absent) + aggregate_values, *self._merge(relation, g))
            for g, aggregate_values in zip(groups.values(), aggregated)
        ]
        return self._rows_relation(extended_layout, grouped_rows), aggregate_slots

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
        for values in map(relation.memo.rows.__getitem__, relation.positions):
            groups.setdefault(tuple(fn(values) for fn in key_fns), []).append(values)
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

    def _project(
        self,
        relation: Relation,
        expressions: list[ast.Expression],
        aggregate_slots: dict[str, int],
        at: list[int],
    ) -> list[tuple[SQLValue, ...]]:
        """The select list at ``relation``'s positions ``at``, one item's
        batch form at a time; if one raises, the row loop (row by row, item
        by item) raises its own first error."""
        try:
            columns = [self._compile_batch(e, relation, aggregate_slots)(at) for e in expressions]
            return list(zip(*columns))
        except Exception as exc:  # noqa: BLE001 - replayed below
            error = exc
        item_fns = self._compile_values(expressions, relation.layout, aggregate_slots)
        for values in map(relation.memo.rows.__getitem__, at):
            for item_fn in item_fns:
                item_fn(values)
        raise error

    # -- DISTINCT / ORDER ------------------------------------------------------------

    def _distinct(
        self, relation: Relation, item_fns: list[CompiledExpression]
    ) -> tuple[list[int], list[ExecRow]]:
        """Project every row and merge equal outputs, in first-seen order;
        also returns the position of each merged row's first pre-projection
        row (the row its ORDER BY keys are evaluated on)."""
        groups: dict[tuple, list[tuple[int, ExecRow]]] = {}
        for position, row in zip(relation.positions, relation.rows):
            values = tuple(item_fn(row.values) for item_fn in item_fns)
            groups.setdefault(values, []).append((position, row))
        firsts = [members[0][0] for members in groups.values()]
        merged = [
            ExecRow(values, *self._merge_union([row for _position, row in members]))
            for values, members in groups.items()
        ]
        return firsts, merged


def _paired(
    layout: RowLayout,
    left: Relation,
    right: Relation,
    lefts: list[int],
    rights: list[int],
    padded: bool = False,
) -> Relation:
    """The pairs ``(lefts[k], rights[k])`` of memo positions as a relation.
    With ``padded``, right position ``len(right.memo.rows)`` is a LEFT
    join's all-NULL row, whose lineage is empty and whose how is 1: a
    padded pair keeps its left row's lineage and how."""
    right_lineages, right_hows = right.lineages, right.hows
    if padded and right_lineages is not None:
        right_lineages = _Padded(right_lineages, EMPTY_LINEAGE)
    if padded and right_hows is not None:
        right_hows = _Padded(right_hows, Polynomial.one())
    lineages = hows = None
    if left.lineages is not None:
        lineages = _Pairs(left.lineages, right_lineages, lefts, rights, operator.or_)
    if left.hows is not None:
        hows = _Pairs(left.hows, right_hows, lefts, rights, operator.mul)
    memo = PairMemo(left.memo, right.memo, lefts, rights, padded)
    return Relation(layout, memo, list(range(len(lefts))), lineages, hows)


def _candidates(
    left: Relation, right: Relation, join_plan: JoinPlan
) -> tuple[list[int], list[int]]:
    """A join's candidate (left, right) position pairs, left-major: every
    pair without an equi key, else each left row's matches among buckets
    of right positions, in right order (a single key is the value itself,
    a composite key zips its columns)."""
    lefts, rights = left.positions, right.positions
    if not join_plan.is_hash_join:
        return [p for p in lefts for _ in rights], rights * len(lefts)
    composite = len(join_plan.left_keys) > 1
    left_keys = _key_values(left, join_plan.left_keys)
    right_keys = _key_values(right, join_plan.right_keys)
    buckets: dict = {}
    for key, position in zip(right_keys, rights):
        buckets.setdefault(key, []).append(position)
    _drop_null_keys(buckets, composite)
    paired_lefts: list[int] = []
    paired_rights: list[int] = []
    for position, bucket in zip(lefts, map(buckets.get, left_keys)):
        if bucket is not None:
            paired_lefts += repeat(position, len(bucket))
            paired_rights += bucket
    return paired_lefts, paired_rights


def _key_values(relation: Relation, refs: tuple[ast.ColumnRef, ...]) -> list:
    """Each position's join key: the value for one key column, else a tuple."""
    memo, layout = relation.memo, relation.layout
    columns = [memo.columns[layout.resolve(ref.name, ref.table)] for ref in refs]
    values = [list(map(column.__getitem__, relation.positions)) for column in columns]
    return values[0] if len(values) == 1 else list(zip(*values))


def _drop_null_keys(buckets: dict, composite: bool) -> None:
    """Remove the keys holding a NULL: NULL never equi-matches."""
    if not composite:
        buckets.pop(None, None)
        return
    for key in [key for key in buckets if None in key]:
        del buckets[key]


def _cited(lineages: Sequence[Lineage], at) -> Iterable[Lineage]:
    """The distinct base lineage sets that the rows at positions ``at`` cite."""
    if isinstance(lineages, _Pairs):
        return chain(
            _cited(lineages.left, set(map(lineages.lefts.__getitem__, at))),
            _cited(lineages.right, set(map(lineages.rights.__getitem__, at))),
        )
    return map(lineages.__getitem__, at)


def _sort(
    positions: list[int],
    order_by: tuple[ast.OrderItem, ...],
    key_fns: list[BatchExpression],
) -> list[int]:
    """The order of ``positions`` by their ORDER BY keys, as indexes into it.

    One stable C-level sort per key, last key first, on
    ``(value is None, value)``: NULLs sort after every value in
    ascending order and before it under DESC, and equal keys
    (``True == 1`` included) keep their input order.  A key holding
    values that cannot be ordered against each other (text against a
    number) raises, whatever the other keys hold.  Keys come from
    pre-projection positions, so the caller cuts LIMIT/OFFSET before it
    evaluates the select list.
    """
    order = list(range(len(positions)))
    for order_item, key_fn in reversed(list(zip(order_by, key_fns))):
        values = key_fn(positions)
        keys = list(zip(map(operator.is_, values, repeat(None)), values))
        try:
            order.sort(key=keys.__getitem__, reverse=order_item.descending)
        except TypeError as exc:
            kinds = {type(value).__name__ for value in values} - {"NoneType"}
            raise ExecutionError(
                f"cannot order {' against '.join(sorted(kinds))} "
                f"in ORDER BY {order_item.expression.to_sql()}"
            ) from exc
    return order


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
