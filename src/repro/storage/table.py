"""In-memory relations with named columns.

A :class:`Table` is an immutable list of tuples plus a column-name header.
It deliberately mirrors what the paper materializes during evaluation: the
``B_i`` tables of BGP embeddings and the ``CTP_j`` tables of connecting-tree
results (Section 3, steps A-C).

The public constructor validates what it is handed (distinct column names,
every row re-tupled and arity-checked).  Operators derive their rows from
rows that already passed that check, so they build their result through
:meth:`Table._derived`, which trusts the rows and pays nothing per row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import StorageError


def row_picker(positions: Sequence[int]) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
    """``row -> tuple(row[p] for p in positions)``, compiled once per operator."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _distinct_names(columns: Iterable[str]) -> Tuple[str, ...]:
    columns = tuple(columns)
    if len(set(columns)) != len(columns):
        raise StorageError(f"duplicate column names in {columns}")
    return columns


class Table:
    """An immutable relation: a tuple of column names and a list of rows."""

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]]):
        self.columns: Tuple[str, ...] = _distinct_names(columns)
        width = len(self.columns)
        materialized: List[Tuple[Any, ...]] = []
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise StorageError(f"row arity {len(row)} does not match {width} columns {self.columns}")
            materialized.append(row)
        self.rows = materialized
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.columns)}

    # ------------------------------------------------------------------
    @classmethod
    def _derived(cls, columns: Tuple[str, ...], rows: List[Tuple[Any, ...]]) -> "Table":
        """Wrap rows an operator derived from already-validated rows.

        ``columns`` must be a tuple of distinct names and ``rows`` a fresh
        list (not another table's) of tuples of that arity; nothing is
        checked or copied.  Rows from anywhere else go through ``Table()``.
        """
        table = cls.__new__(cls)
        table.columns = columns
        table.rows = rows
        table._index = {name: i for i, name in enumerate(columns)}
        return table

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        return cls(columns, [])

    @classmethod
    def from_dicts(cls, columns: Sequence[str], dicts: Iterable[Dict[str, Any]]) -> "Table":
        columns = tuple(columns)
        return cls(columns, ([d[c] for c in columns] for d in dicts))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.columns}, {len(self.rows)} rows)"

    def column_position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StorageError(f"unknown column {name!r}; table has {self.columns}") from None

    def column(self, name: str) -> List[Any]:
        """All values of one column (with duplicates, in row order)."""
        position = self.column_position(name)
        return [row[position] for row in self.rows]

    def distinct_values(self, name: str) -> List[Any]:
        """Distinct values of one column, first-seen order (π with dedup)."""
        position = self.column_position(name)
        seen = set()
        out = []
        for row in self.rows:
            value = row[position]
            if value not in seen:
                seen.add(value)
                out.append(value)
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def project(self, columns: Sequence[str], distinct: bool = False) -> "Table":
        """π — keep only ``columns`` (optionally deduplicating rows)."""
        columns = _distinct_names(columns)
        rows = list(map(row_picker([self.column_position(c) for c in columns]), self.rows))
        if distinct:
            rows = list(dict.fromkeys(rows))
        return Table._derived(columns, rows)

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Table":
        """σ — keep rows whose dict form satisfies ``predicate``."""
        columns = self.columns
        return Table._derived(columns, [row for row in self.rows if predicate(dict(zip(columns, row)))])

    def select_eq(self, column: str, value: Any) -> "Table":
        """σ column = value (the common fast path)."""
        position = self.column_position(column)
        return Table._derived(self.columns, [row for row in self.rows if row[position] == value])

    def select_in(self, column: str, values: Iterable[Any]) -> "Table":
        value_set = set(values)
        position = self.column_position(column)
        return Table._derived(self.columns, [row for row in self.rows if row[position] in value_set])

    def rename(self, mapping: Dict[str, str]) -> "Table":
        """ρ — rename columns according to ``mapping``."""
        columns = _distinct_names(mapping.get(c, c) for c in self.columns)
        return Table._derived(columns, list(self.rows))

    def distinct(self) -> "Table":
        return Table._derived(self.columns, list(dict.fromkeys(self.rows)))

    def union(self, other: "Table") -> "Table":
        if self.columns != other.columns:
            raise StorageError(f"union of incompatible schemas {self.columns} vs {other.columns}")
        return Table._derived(self.columns, self.rows + other.rows)

    def cross(self, other: "Table") -> "Table":
        """Cartesian product (columns must be disjoint)."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise StorageError(f"cross product with shared columns {overlap}; use natural_join")
        columns = self.columns + other.columns
        return Table._derived(columns, [left + right for left in self.rows for right in other.rows])

    def sort(self, columns: Sequence[str]) -> "Table":
        key = row_picker([self.column_position(c) for c in columns])
        return Table._derived(self.columns, sorted(self.rows, key=key))
