"""stdlib ``sqlite3`` as an independent reference for the SQL engine.

:func:`copy_to_sqlite` copies every table of a :class:`Database` into an
in-memory sqlite3 database and sets each row's ``rowid`` to our
``row_id``, so sqlite3 can name the base rows behind each answer.
:func:`assert_matches_sqlite` then checks one executed SELECT against
that copy: the result rows as a multiset, the row order under ORDER BY,
the where-lineage of every output row and, when captured, its
how-polynomial.  The lineage reference is computed by sqlite3 alone
(``SELECT t.rowid, u.rowid, ...`` for plain rows, ``group_concat(rowid)``
per group), so it shares no code with the executor it checks.

Known dialect differences.  The two engines agree everywhere else that
the tests exercise; where they do not, the tests spell out our expected
values instead of asking sqlite3:

1. **Integer division is exact-or-float.**  ``7 / 2`` is ``3.5`` here and
   ``3`` in sqlite3; ``6 / 3`` is the integer ``2`` in both.  Modulo
   follows Python's sign rule (``-5 % 3`` is ``1``; sqlite3 gives ``-2``),
   and division or modulo by zero raises instead of yielding NULL.
2. **LIKE is case-sensitive.**  ``'abc' LIKE 'A%'`` is FALSE here; sqlite3
   folds ASCII case and says TRUE.
3. **A mixed-type comparison raises** :class:`ExecutionError`.  sqlite3
   orders values by storage class instead (every number < every text).
   Booleans are not numbers here, so ``(a = 1) + 2`` raises too, where
   sqlite3 treats TRUE as ``1``.
   An ORDER BY key holding both text and numbers raises for the same
   reason, whatever the keys before it hold.
4. **NULLs sort last** in ascending order (first under DESC); sqlite3
   sorts them first.
5. **DISTINCT orders only by what it outputs.**  An ORDER BY key of a
   SELECT DISTINCT must be a select item, or read only columns that some
   select item outputs bare, with no aggregate of its own; otherwise it
   raises.  sqlite3 orders by an arbitrary row of each merged group.
6. **A negated integer ORDER BY term is a constant.**  ``ORDER BY -1``
   sorts nothing here; sqlite3 reports it out of range.
7. **WHERE, HAVING and JOIN ON take booleans only.**  A filter value that
   is not TRUE, FALSE or NULL raises (``WHERE quantity`` reports "WHERE
   requires a boolean, got 3"); sqlite3 keeps the rows whose value is
   non-zero.

Positional ORDER BY agrees: an integer term is a 1-based output column,
a term outside 1..width raises in both, and a float such as ``2.0`` is a
constant in both.  So does lazy projection: a select-list expression is
evaluated only on the rows that survive LIMIT/OFFSET, so a row the LIMIT
cuts cannot raise.

Booleans come back from sqlite3 as ``0`` / ``1``; since ``True == 1`` in
Python, row comparisons need no conversion for them.
"""

from __future__ import annotations

import dataclasses
import functools
import sqlite3
from collections import Counter
from contextlib import closing

from repro.provenance.semiring import row_variable
from repro.sqldb import Database, ast
from repro.sqldb.executor import SelectExecutor, SelectResult

_SQLITE_TYPES = {
    "INTEGER": "INTEGER",
    "FLOAT": "REAL",
    "TEXT": "TEXT",
    "BOOLEAN": "INTEGER",
    "DATE": "TEXT",
}


def copy_to_sqlite(database: Database) -> sqlite3.Connection:
    """Every table of ``database`` in a fresh in-memory sqlite3 database.

    Each copied row keeps its identity: sqlite3's ``rowid`` is our row id.
    """
    connection = sqlite3.connect(":memory:")
    for table in database.catalog.tables():
        names = [column.name for column in table.schema]
        columns = ", ".join(
            f"{column.name} {_SQLITE_TYPES[column.type.value]}"
            for column in table.schema
        )
        connection.execute(f"CREATE TABLE {table.name} ({columns})")
        placeholders = ", ".join("?" for _ in range(len(names) + 1))
        connection.executemany(
            f"INSERT INTO {table.name} (rowid, {', '.join(names)}) "
            f"VALUES ({placeholders})",
            [(row_id, *values) for row_id, values in table.rows_with_ids()],
        )
    return connection


def sqlite_values(
    expression_sql: str, columns: list[str], rows: list[tuple]
) -> list:
    """What sqlite3 computes for ``expression_sql`` on each of ``rows``.

    The rows live in a table ``t`` with untyped ``columns``, so sqlite3
    applies no type affinity: a value is stored exactly as given.
    """
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(f"CREATE TABLE t ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO t VALUES ({', '.join('?' for _ in columns)})", rows
        )
        return [
            value
            for (value,) in connection.execute(
                f"SELECT {expression_sql} FROM t ORDER BY rowid"
            )
        ]
    finally:
        connection.close()


def assert_matches_sqlite(
    database: Database, statement: ast.SelectStatement, result: SelectResult
) -> None:
    """``result`` (our execution of ``statement``) agrees with sqlite3.

    Checks, against a copy of ``database``:

    * the rows equal sqlite3's as a multiset;
    * under ORDER BY, our rows are sorted by the key with NULLs last;
    * each output row's lineage is exactly the base rows sqlite3 derives
      it from: the rowids of its joined rows, or every row of its group;
    * with how-provenance, each polynomial mentions exactly the lineage
      rows and counts one derivation per un-deduplicated, ungrouped row
      that fed the output row.

    With LIMIT/OFFSET, our rows (and their lineage and how-polynomials)
    must be the OFFSET/LIMIT slice of our own un-limited result, which is
    checked as above, and the slice's ORDER BY keys must equal sqlite3's
    row by row.  Rows that tie on every key may be cut differently by
    the two engines, so the keys are compared, not the rows.

    UNION is outside its scope.
    """
    assert statement.union is None
    if statement.limit is not None or statement.offset is not None:
        _assert_limit_matches_sqlite(database, statement, result)
        return
    connection = copy_to_sqlite(database)
    try:
        expected_rows = connection.execute(statement.to_sql()).fetchall()
        assert Counter(map(_normalize, result.rows)) == Counter(
            map(_normalize, expected_rows)
        ), (statement.to_sql(), result.rows, expected_rows)
        if statement.order_by:
            _assert_sorted_nulls_last(statement, result)
        reference = _reference_provenance(database, connection, statement)
    finally:
        connection.close()
    if result.how is None:
        actual = Counter(
            (_normalize(row), lineage)
            for row, lineage in zip(result.rows, result.lineage)
        )
        without_how: Counter = Counter()
        for (row, lineage, _derivations), count in reference.items():
            without_how[row, lineage] += count
        reference = without_how
    else:
        for lineage, how in zip(result.lineage, result.how):
            assert how.variables == frozenset(
                row_variable(table, row_id) for table, row_id in lineage
            ), (statement.to_sql(), lineage, str(how))
        actual = Counter(
            (_normalize(row), lineage, how.derivation_count)
            for row, lineage, how in zip(result.rows, result.lineage, result.how)
        )
    assert actual == reference, (statement.to_sql(), actual, reference)


def _assert_limit_matches_sqlite(
    database: Database, statement: ast.SelectStatement, result: SelectResult
) -> None:
    unlimited = dataclasses.replace(statement, limit=None, offset=None)
    full = SelectExecutor(
        database.catalog, capture_how=result.how is not None
    ).execute(unlimited)
    assert_matches_sqlite(database, unlimited, full)
    start = statement.offset or 0
    stop = None if statement.limit is None else start + statement.limit
    sql = statement.to_sql()
    assert result.rows == full.rows[start:stop], (sql, result.rows, full.rows)
    assert result.lineage == full.lineage[start:stop], sql
    if result.how is not None:
        assert result.how == full.how[start:stop], sql
    # sqlite3 with our NULL placement written out; LIMIT -1 is "no limit".
    order = ", ".join(
        f"{item.expression.to_sql()} "
        + ("DESC NULLS FIRST" if item.descending else "ASC NULLS LAST")
        for item in statement.order_by
    )
    sqlite_sql = dataclasses.replace(unlimited, order_by=()).to_sql()
    if order:
        sqlite_sql += f" ORDER BY {order}"
    sqlite_sql += f" LIMIT {-1 if statement.limit is None else statement.limit}"
    sqlite_sql += f" OFFSET {start}"
    with closing(copy_to_sqlite(database)) as connection:
        expected = connection.execute(sqlite_sql).fetchall()
    positions = [
        _output_position(statement, item.expression) for item in statement.order_by
    ]

    def keys(rows: list[tuple]) -> list[tuple]:
        return [_normalize(tuple(row[p] for p in positions)) for row in rows]

    assert len(result.rows) == len(expected), (sqlite_sql, result.rows, expected)
    assert keys(result.rows) == keys(expected), (sqlite_sql, result.rows, expected)


def _normalize(row: tuple) -> tuple:
    """Row values comparable across engines (float sums may differ in ulps)."""
    return tuple(
        round(value, 9) if isinstance(value, float) else value for value in row
    )


def _reference_provenance(
    database: Database,
    connection: sqlite3.Connection,
    statement: ast.SelectStatement,
) -> Counter:
    """Multiset of ``(row, lineage, derivations)`` as sqlite3 derives them."""
    refs = [statement.from_table] + [join.table for join in statement.joins]
    tables = [(database.catalog.table(ref.name).name, ref.binding) for ref in refs]
    grouped = bool(statement.group_by) or any(
        ast.collect_aggregates(item.expression) for item in statement.items
    )
    width = len(statement.items)
    if grouped:
        assert not statement.distinct
        extra = [
            ast.FunctionCall("GROUP_CONCAT", (ast.ColumnRef("rowid", binding),))
            for _table, binding in tables
        ] + [ast.AggregateCall("COUNT", ast.Star())]
    else:
        extra = [ast.ColumnRef("rowid", binding) for _table, binding in tables]
    query = dataclasses.replace(
        statement,
        items=statement.items + tuple(ast.SelectItem(e) for e in extra),
        distinct=False,
        order_by=(),
    )
    merged: dict[tuple, tuple[set, int]] = {}
    reference: Counter = Counter()
    for row in connection.execute(query.to_sql()):
        values = _normalize(row[:width])
        if grouped:
            lineage = frozenset(
                (table, int(row_id))
                for (table, _binding), ids in zip(tables, row[width:-1])
                if ids is not None
                for row_id in str(ids).split(",")
            )
            reference[values, lineage, row[-1]] += 1
            continue
        lineage = frozenset(
            (table, row_id)
            for (table, _binding), row_id in zip(tables, row[width:])
            if row_id is not None  # the padded side of a LEFT JOIN
        )
        if not statement.distinct:
            reference[values, lineage, 1] += 1
            continue
        # DISTINCT merges equal rows: their lineages unite, derivations add.
        cited, derivations = merged.get(values, (set(), 0))
        merged[values] = (cited | lineage, derivations + 1)
    for values, (cited, derivations) in merged.items():
        reference[values, frozenset(cited), derivations] += 1
    return reference


def _assert_sorted_nulls_last(
    statement: ast.SelectStatement, result: SelectResult
) -> None:
    """Our rows are ordered by the ORDER BY keys, NULLs last ascending."""
    positions = [
        _output_position(statement, item.expression) for item in statement.order_by
    ]
    directions = [item.descending for item in statement.order_by]

    def compare(left: tuple, right: tuple) -> int:
        for position, descending in zip(positions, directions):
            a, b = left[position], right[position]
            if a == b:
                continue
            verdict = 1 if a is None else -1 if b is None else (-1 if a < b else 1)
            return -verdict if descending else verdict
        return 0

    assert result.rows == sorted(result.rows, key=functools.cmp_to_key(compare)), (
        statement.to_sql(),
        result.rows,
    )


def _output_position(statement: ast.SelectStatement, key: ast.Expression) -> int:
    """The select-list position an ORDER BY key reads (it must be one)."""
    if isinstance(key, ast.Literal) and type(key.value) is int:
        return key.value - 1  # positional, 1-based
    for position, item in enumerate(statement.items):
        if item.expression == key:
            return position
        if isinstance(key, ast.ColumnRef) and key.table is None and (
            key.name.lower() == item.output_name(position).lower()
        ):
            return position
    raise AssertionError(f"ORDER BY key {key.to_sql()} is not an output column")
