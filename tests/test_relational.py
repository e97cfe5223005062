"""Tests for natural joins (step C of the paper's evaluation strategy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.relational import natural_join, natural_join_many, semi_join
from repro.storage.table import Table


class TestNaturalJoin:
    def test_join_on_shared_column(self):
        left = Table(("x", "y"), [(1, "a"), (2, "b")])
        right = Table(("y", "z"), [("a", 10), ("a", 11), ("c", 12)])
        joined = natural_join(left, right)
        assert joined.columns == ("x", "y", "z")
        assert sorted(joined.rows) == [(1, "a", 10), (1, "a", 11)]

    def test_join_without_shared_columns_is_cross(self):
        left = Table(("x",), [(1,)])
        right = Table(("y",), [(2,), (3,)])
        joined = natural_join(left, right)
        assert sorted(joined.rows) == [(1, 2), (1, 3)]

    def test_join_on_multiple_columns(self):
        left = Table(("a", "b", "c"), [(1, 2, "l"), (1, 3, "l2")])
        right = Table(("a", "b", "d"), [(1, 2, "r"), (1, 9, "r2")])
        joined = natural_join(left, right)
        assert joined.rows == [(1, 2, "l", "r")]

    def test_join_builds_hash_on_smaller_side(self):
        # behaviour identical regardless of operand sizes
        small = Table(("k", "v"), [(1, "s")])
        big = Table(("k", "w"), [(i, f"b{i}") for i in range(10)])
        assert natural_join(small, big).rows == [(1, "s", "b1")]
        joined = natural_join(big, small)
        assert joined.columns == ("k", "w", "v")
        assert joined.rows == [(1, "b1", "s")]

    def test_join_empty(self):
        left = Table(("x", "y"), [])
        right = Table(("y", "z"), [("a", 1)])
        assert len(natural_join(left, right)) == 0


def _reference_natural_join(left, right):
    """The join as it was: tuple keys per row on either side, rows re-checked
    by the public ``Table`` constructor.  Defines the output order."""
    shared = [c for c in left.columns if c in right.columns]
    if not shared:
        return left.cross(right)
    left_positions = [left.column_position(c) for c in shared]
    right_positions = [right.column_position(c) for c in shared]
    right_extra = [i for i, c in enumerate(right.columns) if c not in shared]
    swap = len(right) < len(left)
    if swap:
        build, probe = right, left
        build_positions, probe_positions = right_positions, left_positions
    else:
        build, probe = left, right
        build_positions, probe_positions = left_positions, right_positions
    buckets = {}
    for row in build.rows:
        key = tuple(row[p] for p in build_positions)
        buckets.setdefault(key, []).append(row)
    columns = left.columns + tuple(right.columns[i] for i in right_extra)
    out_rows = []
    if swap:
        for left_row in probe.rows:
            key = tuple(left_row[p] for p in probe_positions)
            for right_row in buckets.get(key, ()):
                out_rows.append(left_row + tuple(right_row[i] for i in right_extra))
    else:
        for right_row in probe.rows:
            key = tuple(right_row[p] for p in probe_positions)
            for left_row in buckets.get(key, ()):
                out_rows.append(left_row + tuple(right_row[i] for i in right_extra))
    return Table(columns, out_rows)


def _tables(columns):
    # Values from a set of three: duplicate keys on both sides are the rule.
    row = st.tuples(*[st.integers(0, 2)] * len(columns))
    return st.lists(row, max_size=8).map(lambda rows: Table(columns, rows))


#: (left columns, right columns): one shared column — scalar keys, the BGP
#: chain case — in either position, two shared, all shared, right all shared.
_SCHEMAS = st.sampled_from(
    [
        (("a", "k"), ("k", "b")),
        (("k", "a"), ("b", "c", "k")),
        (("a", "k", "j"), ("j", "b", "k")),
        (("k", "j"), ("j", "k")),
        (("a", "k"), ("k",)),
    ]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), schema=_SCHEMAS)
def test_natural_join_equals_reference_row_for_row(data, schema):
    """Empty sides, equal sizes and both build/probe directions included."""
    left, right = data.draw(_tables(schema[0])), data.draw(_tables(schema[1]))
    expected = _reference_natural_join(left, right)
    got = natural_join(left, right)
    assert got.columns == expected.columns
    assert got.rows == expected.rows


class TestNaturalJoinMany:
    def test_three_way_chain(self):
        t1 = Table(("a", "b"), [(1, 2), (5, 6)])
        t2 = Table(("b", "c"), [(2, 3)])
        t3 = Table(("c", "d"), [(3, 4)])
        joined = natural_join_many([t1, t2, t3])
        assert set(joined.columns) == {"a", "b", "c", "d"}
        assert len(joined) == 1
        row = dict(zip(joined.columns, joined.rows[0]))
        assert row == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_prefers_connected_joins_before_cross(self):
        # (a,b) and (c,d) are disconnected; (b,c) connects them
        t1 = Table(("a", "b"), [(1, 2)])
        t2 = Table(("c", "d"), [(3, 4)])
        t3 = Table(("b", "c"), [(2, 3)])
        joined = natural_join_many([t1, t2, t3])
        assert len(joined) == 1

    def test_single_table(self):
        t1 = Table(("a",), [(1,)])
        assert natural_join_many([t1]).rows == [(1,)]

    def test_empty_input_rejected(self):
        with pytest.raises(StorageError):
            natural_join_many([])

    def test_disconnected_cross_product(self):
        t1 = Table(("a",), [(1,), (2,)])
        t2 = Table(("b",), [(3,)])
        joined = natural_join_many([t1, t2])
        assert len(joined) == 2


class TestSemiJoin:
    def test_filters_left(self):
        left = Table(("x", "y"), [(1, "a"), (2, "b")])
        right = Table(("y",), [("a",)])
        assert semi_join(left, right).rows == [(1, "a")]

    def test_no_shared_columns_nonempty_right(self):
        left = Table(("x",), [(1,)])
        right = Table(("y",), [(9,)])
        assert semi_join(left, right).rows == [(1,)]

    def test_no_shared_columns_empty_right(self):
        left = Table(("x",), [(1,)])
        right = Table(("y",), [])
        assert len(semi_join(left, right)) == 0
