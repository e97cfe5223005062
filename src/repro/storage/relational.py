"""Join operators over :class:`~repro.storage.table.Table`.

Step (C) of the paper's evaluation strategy computes ``π_head(B_1 ⋈ ... ⋈
B_k ⋈ CTP_1 ⋈ ... ⋈ CTP_l)``; :func:`natural_join_many` implements the
n-way natural join with a greedy order (join the pair sharing columns with
the smallest intermediate first, falling back to cross products only when
the remaining tables are truly disconnected).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.table import Table, row_picker


def natural_join(left: Table, right: Table) -> Table:
    """Hash-based natural join on all shared column names.

    With no shared columns this degrades to the Cartesian product, matching
    standard relational semantics.  Keys come from one compiled
    ``itemgetter`` per side — a bare scalar when a single column is shared
    (the BGP chain case), a tuple otherwise — and right rows are cut down
    to their non-shared columns once per row, not once per output row.

    Output order is part of the contract (BGP row order decides seed
    order): probe rows in table order, and for each the matching build
    rows in table order, the build side being the smaller operand (the
    left one on a tie).
    """
    shared = [c for c in left.columns if c in right.columns]
    if not shared:
        return left.cross(right)
    left_key = itemgetter(*(left.column_position(c) for c in shared))
    right_key = itemgetter(*(right.column_position(c) for c in shared))
    right_extra = [i for i, c in enumerate(right.columns) if c not in shared]
    extra = row_picker(right_extra)
    columns = left.columns + tuple(right.columns[i] for i in right_extra)
    left_keys, right_keys = map(left_key, left.rows), map(right_key, right.rows)
    tails = map(extra, right.rows)
    buckets: Dict[Any, List[Tuple[Any, ...]]] = {}
    matches = buckets.get
    if len(right) < len(left):
        for key, tail in zip(right_keys, tails):
            buckets.setdefault(key, []).append(tail)
        rows = [row + tail for row, key in zip(left.rows, left_keys) for tail in matches(key, ())]
    else:
        for row, key in zip(left.rows, left_keys):
            buckets.setdefault(key, []).append(row)
        rows = [row + tail for key, tail in zip(right_keys, tails) for row in matches(key, ())]
    return Table._derived(columns, rows)


def natural_join_many(tables: Sequence[Table]) -> Table:
    """Join any number of tables, greedily preferring connected, small joins."""
    if not tables:
        raise StorageError("natural_join_many needs at least one table")
    remaining = list(tables)
    # Start from the smallest table.
    remaining.sort(key=len)
    current = remaining.pop(0)
    while remaining:
        current_columns = set(current.columns)
        best_index = None
        best_key = None
        for index, table in enumerate(remaining):
            shares = bool(current_columns & set(table.columns))
            key = (not shares, len(table))  # prefer connected, then small
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        current = natural_join(current, remaining.pop(best_index))
    return current


def semi_join(left: Table, right: Table) -> Table:
    """Rows of ``left`` that have at least one join partner in ``right``."""
    shared = [c for c in left.columns if c in right.columns]
    if not shared:
        return left if len(right) else Table.empty(left.columns)
    keys = set(map(itemgetter(*(right.column_position(c) for c in shared)), right.rows))
    left_key = itemgetter(*(left.column_position(c) for c in shared))
    return Table._derived(left.columns, [row for row in left.rows if left_key(row) in keys])
