"""Unit tests for the relational Table."""

import pytest

from repro.errors import StorageError
from repro.storage.relational import natural_join, semi_join
from repro.storage.table import Table


@pytest.fixture
def people() -> Table:
    return Table(("name", "city"), [("alice", "paris"), ("bob", "lyon"), ("carol", "paris")])


class TestConstruction:
    def test_basic(self, people):
        assert len(people) == 3
        assert people.columns == ("name", "city")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            Table(("a", "a"), [])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(StorageError):
            Table(("a", "b"), [(1,)])

    def test_empty(self):
        table = Table.empty(("a",))
        assert len(table) == 0

    def test_from_dicts(self):
        table = Table.from_dicts(("a", "b"), [{"a": 1, "b": 2}, {"b": 4, "a": 3}])
        assert table.rows == [(1, 2), (3, 4)]

    def test_iteration_and_repr(self, people):
        assert list(people)[0] == ("alice", "paris")
        assert "3 rows" in repr(people)


class TestColumnAccess:
    def test_column(self, people):
        assert people.column("city") == ["paris", "lyon", "paris"]

    def test_unknown_column(self, people):
        with pytest.raises(StorageError):
            people.column("ghost")

    def test_distinct_values_order(self, people):
        assert people.distinct_values("city") == ["paris", "lyon"]

    def test_to_dicts(self, people):
        assert people.to_dicts()[1] == {"name": "bob", "city": "lyon"}


class TestOperators:
    def test_project(self, people):
        projected = people.project(["city"])
        assert projected.columns == ("city",)
        assert len(projected) == 3

    def test_project_distinct(self, people):
        projected = people.project(["city"], distinct=True)
        assert projected.rows == [("paris",), ("lyon",)]

    def test_select(self, people):
        selected = people.select(lambda row: row["city"] == "paris")
        assert len(selected) == 2

    def test_select_eq(self, people):
        assert len(people.select_eq("name", "bob")) == 1

    def test_select_in(self, people):
        assert len(people.select_in("name", ["alice", "carol"])) == 2

    def test_rename(self, people):
        renamed = people.rename({"name": "person"})
        assert renamed.columns == ("person", "city")
        assert renamed.rows == people.rows

    def test_distinct(self):
        table = Table(("a",), [(1,), (1,), (2,)])
        assert table.distinct().rows == [(1,), (2,)]

    def test_union(self, people):
        doubled = people.union(people)
        assert len(doubled) == 6

    def test_union_schema_mismatch(self, people):
        with pytest.raises(StorageError):
            people.union(Table(("x",), []))

    def test_cross(self):
        left = Table(("a",), [(1,), (2,)])
        right = Table(("b",), [(10,), (20,)])
        product = left.cross(right)
        assert len(product) == 4
        assert product.columns == ("a", "b")

    def test_cross_shared_columns_rejected(self, people):
        with pytest.raises(StorageError):
            people.cross(people)

    def test_sort(self, people):
        ordered = people.sort(["city", "name"])
        assert [r[0] for r in ordered.rows] == ["bob", "alice", "carol"]


class TestDerivedTables:
    """Operators build their result without re-validating rows; what they
    are handed from outside is still checked, and nothing is shared."""

    def test_public_constructor_checks_every_row(self):
        with pytest.raises(StorageError):
            Table(("a", "b"), [(1, 2), (3,)])
        with pytest.raises(StorageError):
            Table(("a", "b"), iter([(1, 2, 3)]))
        assert Table(("a", "b"), [[1, 2]]).rows == [(1, 2)]  # rows become tuples

    def test_operators_still_reject_duplicate_columns(self, people):
        with pytest.raises(StorageError):
            people.project(["name", "name"])
        with pytest.raises(StorageError):
            people.rename({"name": "city"})

    @pytest.mark.parametrize(
        "operator",
        [
            lambda t: t.project(["name", "city"]),
            lambda t: t.project(["city"], distinct=True),
            lambda t: t.select(lambda record: True),
            lambda t: t.select_eq("city", "paris"),
            lambda t: t.select_in("city", ["paris", "lyon"]),
            lambda t: t.rename({}),
            lambda t: t.distinct(),
            lambda t: t.union(Table.empty(t.columns)),
            lambda t: Table.empty(t.columns).union(t),
            lambda t: t.cross(Table(("one",), [(1,)])),
            lambda t: t.sort(["name"]),
            lambda t: natural_join(t, Table(("city",), [("paris",), ("lyon",)])),
            lambda t: natural_join(Table(("city",), [("paris",), ("lyon",)]), t),
            lambda t: semi_join(t, Table(("city",), [("paris",), ("lyon",)])),
        ],
    )
    def test_no_operator_output_aliases_its_input_rows(self, people, operator):
        before = list(people.rows)
        out = operator(people)
        assert out.rows is not people.rows
        assert all(type(row) is tuple and len(row) == len(out.columns) for row in out.rows)
        out.rows.clear()
        assert people.rows == before
