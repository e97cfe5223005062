"""Pluggable graph backends: the ``GraphBackend`` protocol and CSR storage.

The CTP engines (``repro.ctp``), the traversal utilities and the baseline
simulators only ever *read* a graph, and they read it through a small
surface: neighbor iteration, per-edge scalars (weight, label), and the
label/type indexes.  :class:`GraphBackend` names that surface so any
storage layout can be swapped in underneath the algorithms.

Two backends ship today:

``dict``
    :class:`repro.graph.graph.Graph` itself — the mutable, append-only
    dict/list-of-lists representation used while a graph is being built.

``csr``
    :class:`CSRGraph` — an immutable compressed-sparse-row snapshot
    produced by :meth:`Graph.freeze`.  Adjacency lives in flat ``array``
    offset/target/edge columns (one ``memoryview`` slice per node), edge
    weights and label ids are parallel scalar columns, and per-label edge
    indexes plus per-node caches make repeated neighborhood expansion —
    the hot loop of every algorithm in Section 4 of the paper — cheap.

A search runs on whichever representation it is handed —
``algorithm.run(graph.freeze(), ...)`` is the CSR one; the two backends are
drop-in interchangeable (see ``tests/test_backend_csr.py`` for the
equivalence property tests).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import GraphError, SnapshotError
from repro.graph.graph import AdjacencyEntry, Edge, Graph, Node


@runtime_checkable
class GraphBackend(Protocol):
    """The read surface the search algorithms require of a graph.

    ``Graph`` (the mutable dict backend) and :class:`CSRGraph` (the frozen
    CSR backend) both satisfy this protocol; algorithms must not rely on
    anything outside it so the backends stay interchangeable.
    """

    #: Backend identifier ("dict" or "csr").
    backend: str

    @property
    def num_nodes(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def node(self, node_id: int) -> Node: ...

    def edge(self, edge_id: int) -> Edge: ...

    def node_ids(self) -> range: ...

    def edge_ids(self) -> range: ...

    def adjacent(self, node_id: int) -> Sequence[AdjacencyEntry]: ...

    def adjacent_filtered(
        self, node_id: int, labels: Optional[FrozenSet[str]] = None
    ) -> Sequence[AdjacencyEntry]: ...

    def degree(self, node_id: int) -> int: ...

    def neighbors(self, node_id: int) -> List[int]: ...

    def neighbor_ids(self, node_id: int) -> Sequence[int]: ...

    def edge_weight(self, edge_id: int) -> float: ...

    def edge_label(self, edge_id: int) -> str: ...

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]: ...

    def edge_source(self, edge_id: int) -> int: ...

    def edge_target(self, edge_id: int) -> int: ...

    def nodes_with_label(self, label: str) -> List[int]: ...

    def nodes_with_type(self, type_name: str) -> List[int]: ...

    def edges_with_label(self, label: str) -> List[int]: ...


def dictionary_encode(values: Iterable[Hashable]) -> Tuple[List[Any], "array"]:
    """``(distinct values in first-occurrence order, per-item code column)``.

    Bulk calls only (``dict.fromkeys`` / ``map`` / ``array`` from a list):
    at 10^5 elements a per-item ``setdefault`` loop costs several times
    as much.
    """
    values = list(values)
    codes = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return list(codes), array("q", list(map(codes.__getitem__, values)))


class CSRGraph:
    """An immutable CSR (compressed sparse row) snapshot of a :class:`Graph`.

    Adjacency is stored as three flat parallel columns — incident edge id,
    other endpoint, outgoing flag — indexed by a per-node offset array, so
    node ``n``'s neighborhood is the half-open slice
    ``[offsets[n], offsets[n+1])`` of each column.  Edge weights and label
    ids are parallel per-edge columns, which lets the engines read the two
    scalars their hot loops need without materializing :class:`Edge`
    objects.  Per-node adjacency tuples, distinct-neighbor tuples and
    label-filtered adjacency are cached on first use: connection search
    expands the same frontier nodes over and over, so after the first
    visit an expansion is a single list index.

    Node and edge *objects* (labels, types, properties) of a frozen graph
    are shared with the source graph, in plain lists — CSR accelerates
    topology, not metadata.  The snapshot is topology-immutable:
    :meth:`add_node` / :meth:`add_edge` raise :class:`GraphError`; mutate
    the source graph and call :meth:`Graph.freeze` again instead.

    A snapshot can also live *outside* the process: ``repro.graph.snapshot``
    serializes the flat columns (and the metadata, as columns too) into a
    versioned binary file and loads them back zero-copy through ``mmap``
    (:meth:`_from_columns`), so N worker processes share one physical copy.
    A graph loaded that way holds lazy node/edge sequences that decode an
    object from the columns when it is first asked for.  ``snapshot_path``
    is set on instances that came from (or were saved to) such a file.
    Instances are picklable — the ``memoryview`` columns round-trip through
    their raw bytes — which the process-pool dispatcher relies on for any
    graph that has no snapshot file yet.
    """

    backend = "csr"
    frozen = True

    #: Flat numeric columns, in serialization order: (attribute, typecode).
    #: These are exactly the columns the binary snapshot stores and the
    #: pickle state round-trips; everything else is metadata.
    _COLUMN_SPECS: Tuple[Tuple[str, str], ...] = (
        ("_offsets", "q"),
        ("_adj_edge", "q"),
        ("_adj_other", "q"),
        ("_adj_out", "b"),
        ("_weights", "d"),
        ("_edge_source", "q"),
        ("_edge_target", "q"),
        ("_edge_label_ids", "q"),
    )

    def __init__(self, source: Graph):
        self.name = source.name
        # The source's mutation generation at freeze time: Graph.freeze()
        # keys its memo on this, so any later mutation (including same-size
        # ones like set_edge_weight) rebuilds instead of serving this view.
        self.source_generation: Optional[int] = getattr(source, "generation", 0)
        num_nodes = source.num_nodes
        num_edges = source.num_edges
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self._nodes: Sequence[Node] = list(source._nodes)
        self._edges: Sequence[Edge] = list(source._edges)
        # Columns are filled by bulk calls (accumulate / chain / map into a
        # list, then one array() per column): array() from a list is a
        # tight C loop, array.append per adjacency entry is not.
        # --- CSR adjacency columns ---
        adjacency = source._adjacency
        entries = list(chain.from_iterable(adjacency))
        self._offsets = array("q", list(accumulate(map(len, adjacency), initial=0)))
        self._adj_edge = memoryview(array("q", list(map(itemgetter(0), entries))))
        self._adj_other = memoryview(array("q", list(map(itemgetter(1), entries))))
        self._adj_out = memoryview(array("b", list(map(itemgetter(2), entries))))
        # --- per-edge scalar columns ---
        edges = self._edges
        self._weights = array("d", list(map(attrgetter("weight"), edges)))
        self._edge_source = array("q", list(map(attrgetter("source"), edges)))
        self._edge_target = array("q", list(map(attrgetter("target"), edges)))
        self._label_names, self._edge_label_ids = dictionary_encode(
            map(attrgetter("label"), edges)
        )
        # --- label / type indexes (per-label edge index included); the
        # node-label index is derived on first use (_label_index) ---
        self._nodes_by_label: Optional[Dict[str, List[int]]] = None
        self._nodes_by_type: Mapping[str, Sequence[int]] = {
            name: tuple(ids) for name, ids in source._nodes_by_type.items()
        }
        self._edges_by_label: Mapping[str, Any] = {
            label: array("q", ids) for label, ids in source._edges_by_label.items()
        }
        self._mmap = None
        self.snapshot_path: Optional[str] = None
        self._reset_caches()

    #: Above this node count the per-node view caches switch from dense
    #: ``[None] * num_nodes`` lists (fastest lookups, but ~8 bytes per node
    #: up front — 8MB of pointers per cache at 10^6 nodes, paid even by a
    #: search that touches a few thousand nodes) to plain dicts holding only
    #: the nodes actually expanded.
    _LAZY_CACHE_THRESHOLD = 1 << 17
    #: Entry cap of the label-filtered adjacency cache.  Its key space is
    #: nodes x label-sets — unbounded on a big graph under a long-lived
    #: server — so it evicts least-recently-used beyond this.
    _FILTERED_CACHE_CAP = 4096

    def _reset_caches(self) -> None:
        """(Re)initialize the lazy per-node view caches."""
        num_nodes = self._num_nodes
        if num_nodes > self._LAZY_CACHE_THRESHOLD:
            self._adj_cache: Any = {}
            self._neighbor_cache: Any = {}
        else:
            self._adj_cache = [None] * num_nodes
            self._neighbor_cache = [None] * num_nodes
        self._filtered_cache: "OrderedDict[Tuple[int, FrozenSet[str]], Tuple[AdjacencyEntry, ...]]" = OrderedDict()

    @classmethod
    def _from_columns(
        cls,
        name: str,
        nodes: Sequence[Node],
        edges: Sequence[Edge],
        columns: Dict[str, Any],
        label_names: List[str],
        nodes_by_type: Mapping[str, Sequence[int]],
        edges_by_label: Mapping[str, Any],
        mmap_obj: Any = None,
        snapshot_path: Optional[str] = None,
    ) -> "CSRGraph":
        """Assemble a snapshot directly from pre-built columns.

        The constructor used by the binary snapshot loader and by
        unpickling: ``columns`` maps each :attr:`_COLUMN_SPECS` attribute
        to an ``array`` or (possibly ``mmap``-backed) ``memoryview`` of the
        right typecode.  ``nodes`` / ``edges`` are any sequences indexed by
        id — plain lists, or the loader's column-backed lazy sequences; a
        ``nodes`` sequence that offers ``labels()`` is asked for its labels
        directly, so deriving the node-label index builds no ``Node``.
        ``nodes_by_type`` / ``edges_by_label`` values are id sequences
        (tuples, arrays or column slices).  ``mmap_obj`` is retained on the
        instance to pin the mapping for the columns' lifetime.
        """
        graph = cls.__new__(cls)
        graph.name = name
        graph._num_nodes = len(nodes)
        graph._num_edges = len(edges)
        graph._nodes = nodes
        graph._edges = edges
        for attr, _ in cls._COLUMN_SPECS:
            graph.__dict__[attr] = columns[attr]
        # Adjacency columns are always exposed as memoryviews so slicing in
        # the hot accessors stays zero-copy under either storage.
        for attr in ("_adj_edge", "_adj_other", "_adj_out"):
            if not isinstance(graph.__dict__[attr], memoryview):
                graph.__dict__[attr] = memoryview(graph.__dict__[attr])
        graph._label_names = label_names
        graph._nodes_by_label = None
        graph._nodes_by_type = nodes_by_type
        graph._edges_by_label = edges_by_label
        graph._mmap = mmap_obj
        graph.snapshot_path = snapshot_path
        # A loaded/unpickled snapshot has no live source graph: it must
        # never satisfy a Graph.freeze() memo check.
        graph.source_generation = None
        graph._reset_caches()
        return graph

    # ------------------------------------------------------------------
    # pickling (memoryview columns round-trip through raw bytes)
    # ------------------------------------------------------------------
    def __reduce__(self) -> Tuple[Any, ...]:
        """Picklable state: raw column bytes + metadata, no caches/mmap.

        ``memoryview`` columns (including ``mmap``-backed ones) are
        rendered to bytes and lazy node/edge sequences to plain lists; the
        view caches and the node-label index are dropped (rebuilt on
        demand) and the mapping handle stays with this process.
        """
        columns = {
            # array and memoryview both render to raw bytes the same way.
            attr: (typecode, self.__dict__[attr].tobytes())
            for attr, typecode in self._COLUMN_SPECS
        }
        return (
            _unpickle_csr,
            (
                self.name,
                list(self._nodes),
                list(self._edges),
                columns,
                self._label_names,
                {name: tuple(ids) for name, ids in self._nodes_by_type.items()},
                {label: ids.tobytes() for label, ids in self._edges_by_label.items()},
                self.snapshot_path,
            ),
        )

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def add_node(self, *args: Any, **kwargs: Any) -> int:
        raise GraphError(
            "cannot add_node to a frozen CSRGraph; "
            "mutate the source Graph and call freeze() again"
        )

    def add_edge(self, *args: Any, **kwargs: Any) -> int:
        raise GraphError(
            "cannot add_edge to a frozen CSRGraph; "
            "mutate the source Graph and call freeze() again"
        )

    def freeze(self, force: bool = False) -> "CSRGraph":
        """Already frozen — freezing is idempotent."""
        return self

    @property
    def generation(self) -> int:
        """Mutation generation of this (immutable) view — constant.

        Reports the source graph's generation at freeze time so a frozen
        view and its source carry the same cache-key component; loaded or
        unpickled snapshots (no live source) report 0.
        """
        return self.source_generation or 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < self._num_nodes:
            raise GraphError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        if not 0 <= edge_id < self._num_edges:
            raise GraphError(f"unknown edge id {edge_id}")
        return self._edges[edge_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def node_ids(self) -> range:
        return range(self._num_nodes)

    def edge_ids(self) -> range:
        return range(self._num_edges)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def adjacent(self, node_id: int) -> Tuple[AdjacencyEntry, ...]:
        """All incident edges of ``node_id`` as ``(edge_id, other, outgoing)``."""
        cache = self._adj_cache
        cached = cache.get(node_id) if type(cache) is dict else cache[node_id]
        if cached is None:
            start, end = self._offsets[node_id], self._offsets[node_id + 1]
            cached = tuple(
                zip(
                    self._adj_edge[start:end].tolist(),
                    self._adj_other[start:end].tolist(),
                    map(bool, self._adj_out[start:end]),
                )
            )
            cache[node_id] = cached
        return cached

    def adjacent_filtered(
        self, node_id: int, labels: Optional[FrozenSet[str]] = None
    ) -> Tuple[AdjacencyEntry, ...]:
        """Incident edges whose label is in ``labels`` (all when ``None``)."""
        if labels is None:
            return self.adjacent(node_id)
        if not isinstance(labels, frozenset):
            labels = frozenset(labels)  # cache key; dict backend takes any iterable
        key = (node_id, labels)
        cache = self._filtered_cache
        cached = cache.get(key)
        if cached is None:
            label_ids = self._edge_label_ids
            names = self._label_names
            cached = tuple(
                entry for entry in self.adjacent(node_id) if names[label_ids[entry[0]]] in labels
            )
            cache[key] = cached
            if len(cache) > self._FILTERED_CACHE_CAP:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return cached

    def degree(self, node_id: int) -> int:
        return self._offsets[node_id + 1] - self._offsets[node_id]

    def neighbor_ids(self, node_id: int) -> Tuple[int, ...]:
        """Distinct neighbouring node ids (cached, direction ignored)."""
        cache = self._neighbor_cache
        cached = cache.get(node_id) if type(cache) is dict else cache[node_id]
        if cached is None:
            start, end = self._offsets[node_id], self._offsets[node_id + 1]
            others = self._adj_other[start:end].tolist()
            cached = tuple(dict.fromkeys(others))
            cache[node_id] = cached
        return cached

    def neighbors(self, node_id: int) -> List[int]:
        return list(self.neighbor_ids(node_id))

    def out_edges(self, node_id: int) -> List[Edge]:
        return [self._edges[e] for e, _, outgoing in self.adjacent(node_id) if outgoing]

    def in_edges(self, node_id: int) -> List[Edge]:
        return [self._edges[e] for e, _, outgoing in self.adjacent(node_id) if not outgoing]

    # ------------------------------------------------------------------
    # per-edge scalar columns (the hot-path accessors)
    # ------------------------------------------------------------------
    def edge_weight(self, edge_id: int) -> float:
        return self._weights[edge_id]

    def edge_label(self, edge_id: int) -> str:
        label_id = self._edge_label_ids[edge_id]
        try:
            return self._label_names[label_id]
        except IndexError:  # only a corrupt mapped snapshot column gets here
            raise SnapshotError(
                f"corrupt snapshot (edge {edge_id} has label id {label_id}, "
                f"label table has {len(self._label_names)} entries)"
            ) from None

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """``(source, target)`` read off the flat endpoint columns."""
        return self._edge_source[edge_id], self._edge_target[edge_id]

    def edge_source(self, edge_id: int) -> int:
        return self._edge_source[edge_id]

    def edge_target(self, edge_id: int) -> int:
        return self._edge_target[edge_id]

    # ------------------------------------------------------------------
    # label / type indexes
    # ------------------------------------------------------------------
    def _label_index(self) -> Dict[str, List[int]]:
        """``label -> node ids``, derived in id order on first use.

        Id order is :meth:`Graph.add_node`'s insertion order, so keys (by
        first occurrence) and id lists match the source graph's index.  A
        snapshot neither stores the index nor pays for it at load.
        """
        index = self._nodes_by_label
        if index is None:
            # A loaded snapshot's lazy sequence reads labels off its column.
            labels = getattr(self._nodes, "labels", None)
            labels = labels() if labels is not None else map(attrgetter("label"), self._nodes)
            index = {}
            for node_id, label in enumerate(labels):
                index.setdefault(label, []).append(node_id)
            self._nodes_by_label = index
        return index

    def nodes_with_label(self, label: str) -> List[int]:
        return list(self._label_index().get(label, ()))

    def nodes_with_type(self, type_name: str) -> List[int]:
        return list(self._nodes_by_type.get(type_name, ()))

    def edges_with_label(self, label: str) -> List[int]:
        return list(self._edges_by_label.get(label, ()))

    def node_labels(self) -> List[str]:
        return list(self._label_index())

    def edge_labels(self) -> List[str]:
        return list(self._edges_by_label)

    def find_nodes(self, predicate: Callable[[Node], bool]) -> List[int]:
        return [node.id for node in self._nodes if predicate(node)]

    def find_node_by_label(self, label: str) -> int:
        ids = self._label_index().get(label, ())
        if len(ids) != 1:
            raise GraphError(f"expected exactly one node labelled {label!r}, found {len(ids)}")
        return ids[0]

    # ------------------------------------------------------------------
    # display helpers
    # ------------------------------------------------------------------
    def describe_edge(self, edge_id: int) -> str:
        edge = self.edge(edge_id)
        source = self._nodes[edge.source].label or str(edge.source)
        target = self._nodes[edge.target].label or str(edge.target)
        label = edge.label or "-"
        return f"{source} -[{label}]-> {target}"

    def describe_tree(self, edge_ids: Iterable[int]) -> str:
        parts = sorted(self.describe_edge(e) for e in edge_ids)
        if not parts:
            return "(single node)"
        return "; ".join(parts)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"CSRGraph({name} nodes={self.num_nodes}, edges={self.num_edges})"


def column_from_bytes(typecode: str, raw: Any) -> "array":
    """A private ``array`` copy of a column's raw bytes."""
    column = array(typecode)
    column.frombytes(raw)
    return column


def _unpickle_csr(
    name: str,
    nodes: List[Node],
    edges: List[Edge],
    columns: Dict[str, Tuple[str, bytes]],
    label_names: List[str],
    nodes_by_type: Dict[str, Tuple[int, ...]],
    edges_by_label: Dict[str, bytes],
    snapshot_path: Optional[str],
) -> CSRGraph:
    """Unpickling constructor (see :meth:`CSRGraph.__reduce__`)."""
    return CSRGraph._from_columns(
        name,
        nodes,
        edges,
        {attr: column_from_bytes(*spec) for attr, spec in columns.items()},
        label_names,
        nodes_by_type,
        {label: column_from_bytes("q", raw) for label, raw in edges_by_label.items()},
        snapshot_path=snapshot_path,
    )


def freeze(graph: Graph) -> CSRGraph:
    """CSR snapshot of ``graph`` (memoized — see :meth:`Graph.freeze`)."""
    return graph.freeze()
