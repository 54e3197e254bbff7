"""Row-oriented table storage with stable row identifiers.

Every inserted row receives a monotonically increasing row id that never
gets reused.  Row ids are the atoms of where-provenance: the executor's
lineage sets are sets of ``(table_name, row_id)`` pairs, so a stable id is
what makes an explanation *invertible* — given the lineage one can fetch
the exact base rows back (Section 2.2's invertibility property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CatalogError, IntegrityError
from repro.sqldb.types import Column, ColumnType, Schema, SQLValue, coerce_value


@dataclass
class Table:
    """A named table: schema plus rows keyed by stable row ids."""

    name: str
    schema: Schema
    description: str = ""
    _rows: dict[int, tuple[SQLValue, ...]] = field(default_factory=dict)
    _next_row_id: int = 0
    _primary_key: str | None = None
    _pk_values: set = field(default_factory=set)
    #: Monotonic mutation counter; the query cache keys on it.
    _version: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")

    # -- structure ------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Column names in schema order."""
        return self.schema.names

    @property
    def primary_key(self) -> str | None:
        """The primary-key column name, if one was declared."""
        return self._primary_key

    def set_primary_key(self, column_name: str) -> None:
        """Declare ``column_name`` as the primary key (must exist, be set once)."""
        if self._primary_key is not None:
            raise CatalogError(
                f"table {self.name!r} already has primary key {self._primary_key!r}"
            )
        if not self.schema.has_column(column_name):
            raise CatalogError(
                f"primary key column {column_name!r} not in table {self.name!r}"
            )
        if self._rows:
            raise CatalogError("cannot declare a primary key on a non-empty table")
        self._primary_key = self.schema.column(column_name).name

    # -- rows -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def version(self) -> int:
        """Mutation counter (bumped by insert/delete); cache invalidation key."""
        return self._version

    @property
    def row_ids(self) -> list[int]:
        """All live row ids, in insertion order."""
        return list(self._rows.keys())

    def insert(self, values: list[SQLValue] | tuple[SQLValue, ...]) -> int:
        """Insert one row (positional values); returns the new row id."""
        if len(values) != len(self.schema):
            raise IntegrityError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(values)}"
            )
        coerced: list[SQLValue] = []
        for column, value in zip(self.schema, values):
            stored = coerce_value(value, column.type)
            if stored is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.name}.{column.name} is NOT NULL"
                )
            coerced.append(stored)
        if self._primary_key is not None:
            key_index = self.schema.index_of(self._primary_key)
            key_value = coerced[key_index]
            if key_value is None:
                raise IntegrityError(
                    f"primary key {self.name}.{self._primary_key} cannot be NULL"
                )
            if key_value in self._pk_values:
                raise IntegrityError(
                    f"duplicate primary key {key_value!r} in table {self.name!r}"
                )
            self._pk_values.add(key_value)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = tuple(coerced)
        self._version += 1
        return row_id

    def insert_dict(self, record: dict[str, SQLValue]) -> int:
        """Insert one row given as a name->value mapping; missing cols are NULL."""
        known = {name.lower() for name in self.schema.names}
        for key in record:
            if key.lower() not in known:
                raise CatalogError(
                    f"no column {key!r} in table {self.name!r}"
                )
        lowered = {key.lower(): value for key, value in record.items()}
        values = [lowered.get(column.name.lower()) for column in self.schema]
        return self.insert(values)

    def get_row(self, row_id: int) -> tuple[SQLValue, ...]:
        """Fetch the row stored under ``row_id``."""
        if row_id not in self._rows:
            raise CatalogError(f"no row {row_id} in table {self.name!r}")
        return self._rows[row_id]

    def missing_row_ids(self, row_ids: Iterable[int]) -> set[int]:
        """The ids in ``row_ids`` that name no live row (one set difference)."""
        return set(row_ids).difference(self._rows)

    def rows_by_id(self, row_ids: Iterable[int]) -> dict[int, tuple[SQLValue, ...]]:
        """``{row_id: row}`` for the ids in ``row_ids`` that name a live row.

        Missing ids are left out rather than raising; compare the result's
        size with the request (or call :meth:`missing_row_ids`) to find them.
        """
        rows = self._rows
        return {row_id: rows[row_id] for row_id in row_ids if row_id in rows}

    def delete_row(self, row_id: int) -> None:
        """Delete the row stored under ``row_id``."""
        row = self.get_row(row_id)
        if self._primary_key is not None:
            key_index = self.schema.index_of(self._primary_key)
            self._pk_values.discard(row[key_index])
        del self._rows[row_id]
        self._version += 1

    def rows_with_ids(self):
        """Iterate ``(row_id, row_tuple)`` pairs in insertion order."""
        return iter(self._rows.items())

    def rows(self) -> list[tuple[SQLValue, ...]]:
        """All row tuples in insertion order."""
        return list(self._rows.values())

    def column_values(self, name: str) -> list[SQLValue]:
        """All values of column ``name`` in insertion order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows.values()]

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def from_records(
        cls,
        name: str,
        records: list[dict[str, SQLValue]],
        schema: Schema | None = None,
        description: str = "",
    ) -> "Table":
        """Build a table from a list of dict records.

        When ``schema`` is None, column order follows the first record and
        types are inferred (see :func:`~repro.sqldb.types.infer_column_type`).
        """
        from repro.sqldb.types import infer_column_type

        if schema is None:
            if not records:
                raise CatalogError(
                    "cannot infer a schema from zero records; pass schema="
                )
            column_names = list(records[0].keys())
            columns = []
            for column_name in column_names:
                values = [record.get(column_name) for record in records]
                columns.append(
                    Column(name=column_name, type=infer_column_type(values))
                )
            schema = Schema(columns=columns)
        table = cls(name=name, schema=schema, description=description)
        for record in records:
            table.insert_dict(record)
        return table
