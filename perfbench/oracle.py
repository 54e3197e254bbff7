"""An independent SQL oracle: the same tables, loaded into stdlib sqlite3.

The program's own executor produced benchgen's ``gold_rows``, so checking
answers against them would trust the code under test.  Here every
database's tables are copied into an in-memory sqlite3 database, outside
any timed phase, and the gold SQL runs there instead.
"""

from __future__ import annotations

import math
import re
import sqlite3

_SQLITE_TYPES = {
    "INTEGER": "INTEGER",
    "FLOAT": "REAL",
    "TEXT": "TEXT",
    "BOOLEAN": "INTEGER",
    "DATE": "TEXT",
}

_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _key(database) -> tuple:
    """Databases that hold the same table objects share one copy."""
    return tuple(id(table) for table in database.catalog.tables())


class SqliteOracle:
    """Per-database sqlite3 copies, with results memoised per query."""

    def __init__(self) -> None:
        self._connections: dict[tuple, sqlite3.Connection] = {}
        self._results: dict[tuple, list[tuple]] = {}

    def rows(self, database, sql: str) -> list[tuple]:
        """The rows sqlite3 returns for ``sql`` over ``database``'s copy."""
        key = _key(database)
        if key not in self._connections:
            self._connections[key] = _copy(database)
        if (key, sql) not in self._results:
            self._results[key, sql] = self._connections[key].execute(sql).fetchall()
        return self._results[key, sql]

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        self._results.clear()


def _copy(database) -> sqlite3.Connection:
    """Every table of ``database`` copied into a fresh sqlite3 database."""
    connection = sqlite3.connect(":memory:")
    for table in database.catalog.tables():
        columns = ", ".join(
            f"{_quote(column.name)} {_SQLITE_TYPES[column.type.value]}"
            for column in table.schema
        )
        connection.execute(f"CREATE TABLE {_quote(table.name)} ({columns})")
        placeholders = ", ".join("?" for _ in table.schema)
        connection.executemany(
            f"INSERT INTO {_quote(table.name)} VALUES ({placeholders})",
            [tuple(_sqlite_value(value) for value in row) for row in table.rows()],
        )
    connection.commit()
    return connection


def _sqlite_value(value):
    if isinstance(value, bool):
        return int(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


def is_ordered(sql: str) -> bool:
    """Whether row order is part of the answer (the SQL has ORDER BY)."""
    return _ORDER_BY.search(sql) is not None


def _sort_key(row: tuple) -> tuple:
    return tuple(
        (0, round(float(value), 6)) if isinstance(value, (int, float)) else (1, str(value))
        for value in row
    )


def _same_value(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def rows_match(actual: list[tuple], expected: list[tuple], ordered: bool) -> bool:
    """Equal row lists, floats compared to 1e-9, order ignored unless ``ordered``."""
    if len(actual) != len(expected):
        return False
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    return all(
        len(left) == len(right) and all(map(_same_value, left, right))
        for left, right in zip(actual, expected)
    )
