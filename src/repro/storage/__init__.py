"""Relational substrate.

The paper stores graphs in a PostgreSQL table ``graph(id, source, edgeLabel,
target)`` and delegates BGP evaluation and the final joins of Section 3 to
the relational engine.  This package provides the minimal engine we need in
its place: named-column :class:`~repro.storage.table.Table` values and the
classic operators (selection, projection, natural join, distinct).
"""

from repro.storage.table import Table
from repro.storage.relational import natural_join, natural_join_many

__all__ = ["Table", "natural_join", "natural_join_many"]
