"""Tests for the Database facade, tables, catalog, and ingestion."""

import pytest

from repro.errors import CatalogError, ExecutionError, IntegrityError
from repro.sqldb import Column, ColumnType, Database, Schema, Table
from repro.sqldb.types import coerce_value, infer_column_type


class TestTable:
    def make_table(self):
        return Table(
            name="t",
            schema=Schema(
                columns=[
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("name", ColumnType.TEXT),
                ]
            ),
        )

    def test_insert_and_fetch(self):
        table = self.make_table()
        row_id = table.insert([1, "a"])
        assert table.get_row(row_id) == (1, "a")

    def test_row_ids_are_stable_across_deletes(self):
        table = self.make_table()
        first = table.insert([1, "a"])
        second = table.insert([2, "b"])
        table.delete_row(first)
        third = table.insert([3, "c"])
        assert second == 1
        assert third == 2  # never reuses id 0
        assert table.get_row(second) == (2, "b")

    def test_set_at_a_time_row_lookup(self):
        table = self.make_table()
        for value in (1, 2, 3):
            table.insert([value, str(value)])
        table.delete_row(1)
        assert table.missing_row_ids([0, 1, 2, 7]) == {1, 7}
        assert table.missing_row_ids(set()) == set()
        assert table.rows_by_id({0, 1, 2, 7}) == {0: (1, "1"), 2: (3, "3")}

    def test_not_null_enforced(self):
        table = self.make_table()
        with pytest.raises(IntegrityError):
            table.insert([None, "a"])

    def test_wrong_arity(self):
        table = self.make_table()
        with pytest.raises(IntegrityError):
            table.insert([1])

    def test_primary_key_uniqueness(self):
        table = self.make_table()
        table.set_primary_key("id")
        table.insert([1, "a"])
        with pytest.raises(IntegrityError):
            table.insert([1, "b"])

    def test_primary_key_freed_on_delete(self):
        table = self.make_table()
        table.set_primary_key("id")
        row_id = table.insert([1, "a"])
        table.delete_row(row_id)
        table.insert([1, "b"])  # must not raise

    def test_primary_key_only_on_empty_table(self):
        table = self.make_table()
        table.insert([1, "a"])
        with pytest.raises(CatalogError):
            table.set_primary_key("id")

    def test_insert_dict_missing_column_is_null(self):
        table = self.make_table()
        row_id = table.insert_dict({"id": 1})
        assert table.get_row(row_id) == (1, None)

    def test_insert_dict_unknown_column(self):
        table = self.make_table()
        with pytest.raises(CatalogError):
            table.insert_dict({"id": 1, "bogus": 2})

    def test_from_records_infers_schema(self):
        table = Table.from_records(
            "t", [{"a": 1, "b": "x"}, {"a": 2, "b": None}]
        )
        assert table.schema.column("a").type is ColumnType.INTEGER
        assert table.schema.column("b").type is ColumnType.TEXT
        assert len(table) == 2

    def test_column_values(self):
        table = self.make_table()
        table.insert([1, "a"])
        table.insert([2, "b"])
        assert table.column_values("name") == ["a", "b"]


class TestTypes:
    def test_coerce_int_from_float(self):
        assert coerce_value(3.0, ColumnType.INTEGER) == 3

    def test_coerce_rejects_lossy(self):
        with pytest.raises(ExecutionError):
            coerce_value(3.5, ColumnType.INTEGER)

    def test_coerce_bool_not_numeric(self):
        with pytest.raises(ExecutionError):
            coerce_value(True, ColumnType.INTEGER)

    def test_coerce_date_validates(self):
        assert coerce_value("2024-01-01", ColumnType.DATE) == "2024-01-01"
        with pytest.raises(ExecutionError):
            coerce_value("01/01/2024", ColumnType.DATE)

    def test_null_passes_any_type(self):
        for column_type in ColumnType:
            assert coerce_value(None, column_type) is None

    def test_type_aliases(self):
        assert ColumnType.from_name("varchar") is ColumnType.TEXT
        assert ColumnType.from_name("BIGINT") is ColumnType.INTEGER
        with pytest.raises(CatalogError):
            ColumnType.from_name("BLOB")

    def test_infer_types(self):
        assert infer_column_type([1, 2, None]) is ColumnType.INTEGER
        assert infer_column_type([1, 2.5]) is ColumnType.FLOAT
        assert infer_column_type([True, False]) is ColumnType.BOOLEAN
        assert infer_column_type(["2024-01-01"]) is ColumnType.DATE
        assert infer_column_type(["a"]) is ColumnType.TEXT
        assert infer_column_type([None]) is ColumnType.TEXT

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Schema(columns=[Column("a", ColumnType.TEXT), Column("A", ColumnType.TEXT)])


class TestCatalog:
    def test_foreign_key_validation(self, employees_db):
        with pytest.raises(CatalogError):
            employees_db.catalog.add_foreign_key(
                "employees", "bogus", "departments", "department"
            )

    def test_join_path(self, employees_db):
        fk = employees_db.catalog.join_path("departments", "employees")
        assert fk is not None
        assert fk.column == "department"

    def test_drop_table_removes_fks(self, employees_db):
        employees_db.catalog.drop_table("departments")
        assert "departments" not in employees_db.catalog
        assert employees_db.catalog.foreign_keys == []

    def test_describe_structure(self, employees_db):
        description = employees_db.catalog.describe()
        names = {table["name"] for table in description["tables"]}
        assert names == {"employees", "departments"}
        assert description["foreign_keys"][0]["table"] == "employees"

    def test_duplicate_table_rejected(self, employees_db):
        with pytest.raises(CatalogError):
            employees_db.execute("CREATE TABLE employees (x INT)")


class TestDatabaseFacade:
    def test_create_insert_select_cycle(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
        inserted = db.execute("INSERT INTO t VALUES (1, 2.5), (2, 3.5)")
        assert inserted.rows == [(2,)]
        assert db.execute("SELECT SUM(v) FROM t").scalar() == 6.0

    def test_insert_with_columns_reordered(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute("INSERT INTO t (b, a) VALUES ('x', 1)")
        assert db.execute("SELECT a, b FROM t").rows == [(1, "x")]

    def test_load_records(self):
        db = Database()
        db.load_records("t", [{"x": 1}, {"x": 2}])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_load_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,x,true\n2,y,false\n3,,true\n")
        db = Database()
        db.load_csv("t", path)
        result = db.execute("SELECT a, b, c FROM t ORDER BY a")
        assert result.rows == [(1, "x", True), (2, "y", False), (3, None, True)]

    def test_query_result_helpers(self, employees_db):
        result = employees_db.execute(
            "SELECT name, salary FROM employees WHERE id <= 2 ORDER BY id"
        )
        assert result.column("name") == ["ann", "bob"]
        assert result.to_records()[0] == {"name": "ann", "salary": 100.0}
        assert not result.is_empty
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_stats_accumulate(self, employees_db):
        before = employees_db.stats.queries_executed
        employees_db.execute("SELECT 1")
        assert employees_db.stats.queries_executed == before + 1

    def test_fetch_source_row(self, employees_db):
        record = employees_db.fetch_source_row("employees", 0)
        assert record["name"] == "ann"

    def test_fetch_source_row_missing(self, employees_db):
        with pytest.raises(CatalogError):
            employees_db.fetch_source_row("employees", 999)
