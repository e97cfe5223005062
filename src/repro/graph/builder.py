"""Label-oriented graph construction helpers.

RDF-style datasets are naturally expressed as (subject label, edge label,
object label) triples; :class:`GraphBuilder` resolves labels to node ids,
creating nodes on first use, which keeps dataset definitions (tests, paper
figures, examples) readable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.graph.graph import Graph


class GraphBuilder:
    """Incrementally build a :class:`Graph` addressing nodes by label.

    Example
    -------
    >>> b = GraphBuilder()
    >>> b.triple("Alice", "citizenOf", "France")
    >>> b.set_types("Alice", "entrepreneur")
    >>> g = b.graph
    >>> g.num_edges
    1
    """

    def __init__(self, name: str = ""):
        self.graph = Graph(name)
        self._ids_by_label: Dict[str, int] = {}

    def node(self, label: str, types: Iterable[str] = (), **props: Any) -> int:
        """Return the id for ``label``, creating the node if needed.

        Types and properties given on later calls are merged into the
        existing node by :meth:`Graph.update_node` (copy-on-write; raises
        :class:`~repro.errors.GraphError` for a node of the frozen base).
        """
        node_id = self._ids_by_label.get(label)
        if node_id is None:
            node_id = self.graph.add_node(label, types, **props)
            self._ids_by_label[label] = node_id
        elif types or props:
            self.graph.update_node(node_id, types, **props)
        return node_id

    def set_types(self, label: str, *types: str) -> int:
        return self.node(label, types)

    def triple(self, source: str, edge_label: str, target: str, weight: float = 1.0, **props: Any) -> int:
        """Add the edge ``source -[edge_label]-> target`` by node labels."""
        source_id = self.node(source)
        target_id = self.node(target)
        return self.graph.add_edge(source_id, target_id, edge_label, weight, **props)

    def triples(self, rows: Iterable[Tuple[str, str, str]]) -> None:
        for source, edge_label, target in rows:
            self.triple(source, edge_label, target)

    def id_of(self, label: str) -> int:
        """Id of an existing node (raises ``KeyError`` if absent)."""
        return self._ids_by_label[label]

    def ids_of(self, *labels: str) -> Tuple[int, ...]:
        return tuple(self._ids_by_label[label] for label in labels)


def graph_from_triples(rows: Iterable[Tuple[str, str, str]], name: str = "", types: Optional[Dict[str, Iterable[str]]] = None) -> Graph:
    """Build a graph from (subject, predicate, object) label triples.

    ``types`` optionally maps node labels to their type set, mirroring the
    parenthesised annotations in the paper's Figure 1.
    """
    builder = GraphBuilder(name)
    builder.triples(rows)
    if types:
        for label, type_names in types.items():
            builder.node(label, type_names)
    return builder.graph
