"""Logical query planner: pushdown and join-key extraction.

Run exactly as written, a SELECT would evaluate the whole WHERE clause
after all joins.  This module produces the :class:`SelectPlan` the
executor runs instead:

* **conjunct splitting** — ``a AND b AND c`` becomes ``[a, b, c]``,
  recursing through nested/parenthesised AND trees;
* **predicate pushdown** — conjuncts whose column references all belong
  to one scan are evaluated *inside* that scan, before any join
  multiplies rows.  Pushdown is blocked for the null-padded (right) side
  of a LEFT JOIN, where filtering early would let padded rows leak past
  the WHERE clause, and for conjuncts containing subqueries or
  aggregates, which must keep their original evaluation point;
* **multi-key equi-join detection** — every ``left_col = right_col``
  conjunct of an ON condition (qualified or not, however deeply nested in
  the AND tree) becomes one component of a composite hash key; remaining
  conjuncts become a residual predicate applied per bucket match.  Both
  INNER and LEFT joins take the hash path.

The plan is purely logical: no provenance decision is made here, so the
executor's lineage/how capture is the same as for the statement run as
written (the "provenance survives optimization" requirement of Query By
Provenance; the planner tests check it against sqlite3).  One documented
deviation: like production engines, the plan may evaluate the conjuncts
of a conjunction in any order, so *errors* raised by one conjunct (type
mismatch, division by zero) can surface for rows where another conjunct
would have short-circuited left-to-right evaluation.  TRUE/FALSE/NULL
outcomes are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.sqldb import ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.expressions import BoundColumn, RowLayout


@dataclass(frozen=True)
class ScanPlan:
    """One base-table scan, with any predicate pushed below the joins."""

    table: ast.TableRef
    #: Conjuncts evaluated per base row during the scan (AND-combined).
    predicate: ast.Expression | None = None


@dataclass(frozen=True)
class JoinPlan:
    """One join step against the accumulated left side."""

    kind: str  # "INNER" | "LEFT" | "CROSS"
    scan: ScanPlan
    #: Composite equi-key refs: ``left_keys[i] = right_keys[i]``.
    left_keys: tuple[ast.ColumnRef, ...] = ()
    right_keys: tuple[ast.ColumnRef, ...] = ()
    #: Non-equi conjuncts of the ON condition, applied per candidate pair.
    residual: ast.Expression | None = None

    @property
    def is_hash_join(self) -> bool:
        """Whether the executor can bucket on a composite key."""
        return bool(self.left_keys)


@dataclass(frozen=True)
class SelectPlan:
    """The logical plan for one SELECT block (UNION arms plan separately)."""

    base: ScanPlan | None
    joins: tuple[JoinPlan, ...] = ()
    #: WHERE conjuncts that could not be pushed into any scan.
    where: ast.Expression | None = None
    #: How many WHERE conjuncts were pushed below the joins (for tests).
    pushed_conjuncts: int = 0


def split_conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    """Flatten an AND tree into its conjuncts (document order)."""
    if isinstance(expression, ast.BinaryOp) and expression.operator == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> ast.Expression | None:
    """Rebuild an AND tree from conjuncts (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp(operator="AND", left=combined, right=conjunct)
    return combined


def plan_select(statement: ast.SelectStatement, catalog: Catalog) -> SelectPlan:
    """Plan one SELECT block against ``catalog``.

    Planning never raises on malformed column references; conjuncts it
    cannot place are left in the residual WHERE so execution reports the
    same error, at the same point, as the statement run as written.
    """
    if statement.from_table is None:
        return SelectPlan(base=None, where=statement.where)
    table_refs = [statement.from_table] + [join.table for join in statement.joins]
    layouts = [_scan_layout(ref, catalog) for ref in table_refs]
    full_layout = layouts[0]
    for layout in layouts[1:]:
        full_layout = full_layout.concat(layout)
    scan_of_position = _position_owners(layouts)
    nullable = _nullable_scans(statement.joins)

    scan_conjuncts: list[list[ast.Expression]] = [[] for _ in table_refs]
    residual: list[ast.Expression] = []
    pushed = 0
    if statement.where is not None:
        for conjunct in split_conjuncts(statement.where):
            owner = _sole_owner(conjunct, full_layout, scan_of_position)
            if owner is None or owner in nullable:
                residual.append(conjunct)
                continue
            scan_conjuncts[owner].append(conjunct)
            pushed += 1

    scans = [
        ScanPlan(table=ref, predicate=conjoin(conjuncts))
        for ref, conjuncts in zip(table_refs, scan_conjuncts)
    ]
    joins = []
    cumulative = layouts[0]
    for index, join in enumerate(statement.joins):
        right_layout = layouts[index + 1]
        joins.append(
            _plan_join(join, scans[index + 1], cumulative, right_layout)
        )
        cumulative = cumulative.concat(right_layout)
    return SelectPlan(
        base=scans[0],
        joins=tuple(joins),
        where=conjoin(residual),
        pushed_conjuncts=pushed,
    )


# -- helpers ------------------------------------------------------------------


def _scan_layout(table_ref: ast.TableRef, catalog: Catalog) -> RowLayout:
    """The layout a scan of ``table_ref`` produces (mirrors the executor)."""
    table = catalog.table(table_ref.name)
    binding = table_ref.binding
    return RowLayout(
        [BoundColumn(binding=binding, name=column.name) for column in table.schema]
    )


def _position_owners(layouts: list[RowLayout]) -> list[int]:
    """Map each position of the concatenated layout to its scan index."""
    owners: list[int] = []
    for index, layout in enumerate(layouts):
        owners.extend([index] * len(layout))
    return owners


def _nullable_scans(joins: tuple[ast.Join, ...]) -> set[int]:
    """Scan indexes on the null-padded side of some LEFT join."""
    return {
        index + 1 for index, join in enumerate(joins) if join.kind == "LEFT"
    }


def _sole_owner(
    conjunct: ast.Expression,
    full_layout: RowLayout,
    scan_of_position: list[int],
) -> int | None:
    """The single scan ``conjunct`` reads from, or None if unpushable.

    Unpushable: references to several scans, unresolvable or ambiguous
    names (execution must raise exactly as written), no column
    references at all, or subqueries/aggregates whose evaluation point
    (and memoisation scope) must not move.
    """
    owners: set[int] = set()
    for node in ast.walk_expression(conjunct):
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.AggregateCall)):
            return None
        if not isinstance(node, ast.ColumnRef):
            continue
        try:
            position = full_layout.resolve(node.name, node.table)
        except ExecutionError:
            return None
        owners.add(scan_of_position[position])
    if len(owners) != 1:
        return None
    return owners.pop()


def _plan_join(
    join: ast.Join,
    scan: ScanPlan,
    left_layout: RowLayout,
    right_layout: RowLayout,
) -> JoinPlan:
    """Extract a composite equi-key from the ON condition."""
    if join.kind == "CROSS" or join.condition is None:
        return JoinPlan(kind=join.kind, scan=scan)
    left_keys: list[ast.ColumnRef] = []
    right_keys: list[ast.ColumnRef] = []
    residual: list[ast.Expression] = []
    for conjunct in split_conjuncts(join.condition):
        pair = _equi_pair(conjunct, left_layout, right_layout)
        if pair is None:
            residual.append(conjunct)
            continue
        left_ref, right_ref = pair
        left_keys.append(left_ref)
        right_keys.append(right_ref)
    return JoinPlan(
        kind=join.kind,
        scan=scan,
        left_keys=tuple(left_keys),
        right_keys=tuple(right_keys),
        residual=conjoin(residual),
    )


def _equi_pair(
    conjunct: ast.Expression,
    left_layout: RowLayout,
    right_layout: RowLayout,
) -> tuple[ast.ColumnRef, ast.ColumnRef] | None:
    """Classify ``conjunct`` as ``left_col = right_col`` if possible.

    Each side must resolve in exactly one of the two layouts (ambiguous
    or two-sided references fall back to the residual predicate).
    """
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.operator != "=":
        return None
    if not isinstance(conjunct.left, ast.ColumnRef):
        return None
    if not isinstance(conjunct.right, ast.ColumnRef):
        return None
    left_ref: ast.ColumnRef | None = None
    right_ref: ast.ColumnRef | None = None
    for ref in (conjunct.left, conjunct.right):
        in_left = left_layout.has(ref.name, ref.table)
        in_right = right_layout.has(ref.name, ref.table)
        if in_left and not in_right and left_ref is None:
            left_ref = ref
        elif in_right and not in_left and right_ref is None:
            right_ref = ref
        else:
            return None
    if left_ref is None or right_ref is None:
        return None
    return left_ref, right_ref
