"""Core graph model (Definition 2.1 of the paper).

A graph ``G(N, E)`` has labelled nodes and labelled, *directed* edges.  The
paper's connection search treats the graph as undirected (requirement R3), so
the adjacency index stores, for every node, all incident edges together with
their orientation; the direction is retained because the ``UNI`` CTP filter
and several baselines need it.

Nodes and edges both expose ``label`` plus a free-form property mapping
(``P`` in Definition 2.2); node *types* (RDF types / PG labels) are kept in a
dedicated set because they are so frequently filtered on.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import GraphError

# An adjacency entry: (edge id, other endpoint id, edge leaves this node?).
AdjacencyEntry = Tuple[int, int, bool]


class Node:
    """A graph node: integer id, label, types, and arbitrary properties."""

    __slots__ = ("id", "label", "types", "props")

    def __init__(self, node_id: int, label: str = "", types: Iterable[str] = (), props: Optional[Dict[str, Any]] = None):
        self.id = node_id
        self.label = label
        self.types = frozenset(types)
        self.props: Dict[str, Any] = props or {}

    def property(self, name: str) -> Any:
        """Value of property ``name`` (``label``/``type`` are virtual props)."""
        if name == "label":
            return self.label
        if name == "type":
            return self.types
        return self.props.get(name)

    def __repr__(self) -> str:
        type_part = f" ({','.join(sorted(self.types))})" if self.types else ""
        return f"Node({self.id}, {self.label!r}{type_part})"


class Edge:
    """A directed graph edge with label, weight and arbitrary properties.

    Instances are **immutable**: assigning any attribute raises
    :class:`~repro.errors.GraphError`.  Frozen CSR snapshots and delta
    overlays *share* ``Edge`` objects with the source graph, so an
    in-place ``edge.weight = ...`` would leak future state into every
    pinned view and bypass the generation counter every cache keys on.
    Mutate through :meth:`Graph.set_edge_weight`, which installs a fresh
    ``Edge`` (copy-on-write) and bumps the generation.
    """

    __slots__ = ("id", "source", "target", "label", "weight", "props")

    def __init__(
        self,
        edge_id: int,
        source: int,
        target: int,
        label: str = "",
        weight: float = 1.0,
        props: Optional[Dict[str, Any]] = None,
    ):
        # object.__setattr__: the public __setattr__ below always raises.
        object.__setattr__(self, "id", edge_id)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "props", props or {})

    def __setattr__(self, name: str, value: Any) -> None:
        raise GraphError(
            f"Edge objects are immutable (cannot set {name!r}); frozen views "
            "share them — use Graph.set_edge_weight() so the mutation "
            "generation is bumped and caches/snapshots invalidate"
        )

    def __delattr__(self, name: str) -> None:
        raise GraphError(f"Edge objects are immutable (cannot delete {name!r})")

    # Default slot pickling restores via setattr and would trip the guard.
    def __getstate__(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_rebuild_edge, self.__getstate__())

    def replace_weight(self, weight: float) -> "Edge":
        """A copy of this edge with ``weight`` swapped (props shared)."""
        return Edge(self.id, self.source, self.target, self.label, weight, self.props)

    def property(self, name: str) -> Any:
        if name == "label":
            return self.label
        if name == "weight":
            return self.weight
        return self.props.get(name)

    def other(self, node_id: int) -> int:
        """The endpoint opposite ``node_id`` on this edge."""
        if node_id == self.source:
            return self.target
        if node_id == self.target:
            return self.source
        raise GraphError(f"node {node_id} is not an endpoint of edge {self.id}")

    def __repr__(self) -> str:
        return f"Edge({self.id}, {self.source}-[{self.label}]->{self.target})"


def _rebuild_edge(
    edge_id: int, source: int, target: int, label: str, weight: float, props: Dict[str, Any]
) -> Edge:
    """Unpickling constructor for (immutable) :class:`Edge` objects."""
    return Edge(edge_id, source, target, label, weight, props)


class Graph:
    """A directed multigraph with bidirectional adjacency and label indexes.

    The class is append-only: nodes and edges can be added but not removed,
    which lets the CTP engines treat ids, degrees, and indexes as stable for
    the duration of a search.  (The paper precomputes node degrees ``d_n``
    before evaluating queries, see Section 4.6.)

    Example
    -------
    >>> g = Graph()
    >>> a = g.add_node("Alice", types=("entrepreneur",))
    >>> b = g.add_node("OrgB", types=("company",))
    >>> e = g.add_edge(a, b, "founded")
    >>> g.degree(a)
    1
    """

    #: Backend identifier (see :mod:`repro.graph.backend`).
    backend = "dict"
    frozen = False

    def __init__(self, name: str = ""):
        self.name = name
        self._nodes: List[Node] = []
        self._edges: List[Edge] = []
        self._adjacency: List[List[AdjacencyEntry]] = []
        self._nodes_by_label: Dict[str, List[int]] = {}
        self._nodes_by_type: Dict[str, List[int]] = {}
        self._edges_by_label: Dict[str, List[int]] = {}
        self._frozen_snapshot = None  # memoized CSR view (see freeze())
        self._generation = 0  # monotonic mutation counter (see generation)
        # Mutators and view/snapshot builders synchronize on this lock so a
        # server thread can ingest while request threads pin read views.
        self._lock = threading.RLock()
        self._init_mvcc_state()

    def _init_mvcc_state(self) -> None:
        """(Re)initialize base-snapshot / delta-overlay bookkeeping."""
        self._base = None  # frozen CSR base the delta overlay builds on
        self._base_generation: Optional[int] = None
        self._base_num_nodes = 0
        self._base_num_edges = 0
        # Edges re-weighted since the base froze: edge_id -> weight.
        self._weight_overrides: Dict[int, float] = {}
        self._delta_cache: Optional[Tuple[int, Any]] = None  # (generation, GraphDelta)
        self._view_cache: Optional[Tuple[int, Any]] = None  # (generation, view)
        self._compactions = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: str = "", types: Iterable[str] = (), **props: Any) -> int:
        """Add a node and return its id (ids are dense, starting at 0)."""
        with self._lock:
            self._generation += 1
            node_id = len(self._nodes)
            node = Node(node_id, label, types, props or None)
            self._nodes.append(node)
            self._adjacency.append([])
            self._nodes_by_label.setdefault(label, []).append(node_id)
            for type_name in node.types:
                self._nodes_by_type.setdefault(type_name, []).append(node_id)
            return node_id

    def add_edge(self, source: int, target: int, label: str = "", weight: float = 1.0, **props: Any) -> int:
        """Add a directed edge ``source -> target`` and return its id."""
        with self._lock:
            self._check_node(source)
            self._check_node(target)
            self._generation += 1
            edge_id = len(self._edges)
            edge = Edge(edge_id, source, target, label, weight, props or None)
            self._edges.append(edge)
            self._adjacency[source].append((edge_id, target, True))
            if target != source:
                self._adjacency[target].append((edge_id, source, False))
            self._edges_by_label.setdefault(label, []).append(edge_id)
            return edge_id

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise GraphError(f"unknown node id {node_id}")

    def set_edge_weight(self, edge_id: int, weight: float) -> None:
        """Change the weight of an existing edge.

        The one *same-size* mutation the model supports: the graph keeps
        its node/edge counts but its search results may change, so the
        mutation generation is bumped — a memoized :meth:`freeze` snapshot
        and every generation-keyed cache entry are invalidated.  The
        mutation is copy-on-write: :class:`Edge` objects are immutable
        (direct ``edge.weight = ...`` raises), so pinned frozen views keep
        the edge they froze with and only this graph — and views pinned
        *after* the call — see the new weight.
        """
        with self._lock:
            if not 0 <= edge_id < len(self._edges):
                raise GraphError(f"unknown edge id {edge_id}")
            self._generation += 1
            self._edges[edge_id] = self._edges[edge_id].replace_weight(weight)
            if self._base is not None:
                self._weight_overrides[edge_id] = weight

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumped by *every* mutator.

        Node/edge counts cannot distinguish same-size mutations (e.g. a
        weight update), so caches and snapshots key on this counter
        instead — any entry recorded under an older generation is stale by
        definition.  The counter only ever grows and is process-local (it
        does not survive pickling or binary snapshots, which create new
        graph objects anyway).
        """
        return self._generation

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> Node:
        self._check_node(node_id)
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        if not 0 <= edge_id < len(self._edges):
            raise GraphError(f"unknown edge id {edge_id}")
        return self._edges[edge_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def node_ids(self) -> range:
        return range(len(self._nodes))

    def edge_ids(self) -> range:
        return range(len(self._edges))

    # ------------------------------------------------------------------
    # adjacency (bidirectional: requirement R3)
    # ------------------------------------------------------------------
    def adjacent(self, node_id: int) -> Sequence[AdjacencyEntry]:
        """All edges incident to ``node_id`` as ``(edge_id, other, outgoing)``.

        Self-loops appear once, with ``outgoing=True``.
        """
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Number of incident edges (``d_n`` in Section 4.6)."""
        return len(self._adjacency[node_id])

    def neighbors(self, node_id: int) -> List[int]:
        """Distinct neighbouring node ids, ignoring edge direction."""
        seen = set()
        out = []
        for _, other, _ in self._adjacency[node_id]:
            if other not in seen:
                seen.add(other)
                out.append(other)
        return out

    def neighbor_ids(self, node_id: int) -> Sequence[int]:
        """Distinct neighbour ids (backend API; cached on the CSR backend)."""
        return self.neighbors(node_id)

    def adjacent_filtered(
        self, node_id: int, labels: Optional[Iterable[str]] = None
    ) -> Sequence[AdjacencyEntry]:
        """Incident edges whose label is in ``labels`` (all when ``None``)."""
        entries = self._adjacency[node_id]
        if labels is None:
            return entries
        edges = self._edges
        return [entry for entry in entries if edges[entry[0]].label in labels]

    def edge_weight(self, edge_id: int) -> float:
        """Weight of edge ``edge_id`` (hot-path scalar accessor, unchecked)."""
        return self._edges[edge_id].weight

    def edge_label(self, edge_id: int) -> str:
        """Label of edge ``edge_id`` (hot-path scalar accessor, unchecked)."""
        return self._edges[edge_id].label

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """``(source, target)`` of edge ``edge_id`` (hot-path, unchecked)."""
        edge = self._edges[edge_id]
        return edge.source, edge.target

    def edge_source(self, edge_id: int) -> int:
        """Source node of edge ``edge_id`` (hot-path, unchecked)."""
        return self._edges[edge_id].source

    def edge_target(self, edge_id: int) -> int:
        """Target node of edge ``edge_id`` (hot-path, unchecked)."""
        return self._edges[edge_id].target

    def out_edges(self, node_id: int) -> List[Edge]:
        return [self._edges[e] for e, _, outgoing in self._adjacency[node_id] if outgoing]

    def in_edges(self, node_id: int) -> List[Edge]:
        return [self._edges[e] for e, _, outgoing in self._adjacency[node_id] if not outgoing]

    # ------------------------------------------------------------------
    # label / type indexes
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: str) -> List[int]:
        return list(self._nodes_by_label.get(label, ()))

    def nodes_with_type(self, type_name: str) -> List[int]:
        return list(self._nodes_by_type.get(type_name, ()))

    def edges_with_label(self, label: str) -> List[int]:
        return list(self._edges_by_label.get(label, ()))

    def node_labels(self) -> List[str]:
        return list(self._nodes_by_label)

    def edge_labels(self) -> List[str]:
        return list(self._edges_by_label)

    def find_nodes(self, predicate: Callable[[Node], bool]) -> List[int]:
        """Ids of all nodes satisfying ``predicate`` (full scan)."""
        return [node.id for node in self._nodes if predicate(node)]

    def find_node_by_label(self, label: str) -> int:
        """The unique node carrying ``label`` (convenience for tests/examples)."""
        ids = self._nodes_by_label.get(label, ())
        if len(ids) != 1:
            raise GraphError(f"expected exactly one node labelled {label!r}, found {len(ids)}")
        return ids[0]

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def freeze(self, force: bool = False):
        """A CSR (compressed sparse row) snapshot of this graph.

        The snapshot is memoized: repeated calls return the same
        :class:`~repro.graph.backend.CSRGraph` until the graph *mutates*
        (the memo is keyed on :attr:`generation`, so both appends and
        same-size mutations like :meth:`set_edge_weight` rebuild it).  The
        frozen view is read-only; keep mutating *this* graph and
        re-freeze.

        :class:`Edge` objects are immutable, so every weight change flows
        through :meth:`set_edge_weight` and the generation memo is always
        sound; ``force=True`` remains available to rebuild unconditionally.
        """
        from repro.graph.backend import CSRGraph

        with self._lock:
            snapshot = self._frozen_snapshot
            if (
                not force
                and snapshot is not None
                and snapshot.source_generation == self._generation
            ):
                return snapshot
            snapshot = CSRGraph(self)
            # MVCC stamps: which graph lineage this view belongs to and the
            # source generation it can serve as a delta base for.  Plain
            # instance attributes — CSRGraph's explicit __reduce__ keeps
            # them out of pickles/snapshots (a worker-side copy has no live
            # source; the snapshot file carries the generation in its meta).
            snapshot.view_source = self
            snapshot.base_generation = self._generation
            self._frozen_snapshot = snapshot
            return snapshot

    # ------------------------------------------------------------------
    # MVCC generations: base snapshot ∪ delta overlay (see repro.graph.delta)
    # ------------------------------------------------------------------
    @property
    def base_generation(self) -> Optional[int]:
        """Generation of the current base snapshot (``None`` before one exists)."""
        return self._base_generation

    @property
    def delta_size(self) -> int:
        """Mutations accumulated since the base froze (0 without a base)."""
        if self._base is None:
            return 0
        return (
            (len(self._nodes) - self._base_num_nodes)
            + (len(self._edges) - self._base_num_edges)
            + len(self._weight_overrides)
        )

    @property
    def compactions(self) -> int:
        """How many times :meth:`compact` refroze base ∪ delta."""
        return self._compactions

    def _set_base_locked(self, snapshot: Any) -> None:
        self._base = snapshot
        self._base_generation = self._generation
        self._base_num_nodes = len(self._nodes)
        self._base_num_edges = len(self._edges)
        self._weight_overrides = {}
        self._delta_cache = None
        self._view_cache = None

    def ensure_base(self) -> Any:
        """The frozen CSR base snapshot, created on first use.

        Unlike :meth:`freeze`, an existing base is *kept* when the graph
        mutates — later mutations accumulate in the delta
        (:meth:`delta_since_base`) until :meth:`compact` folds them in.
        """
        with self._lock:
            if self._base is None:
                self._set_base_locked(self.freeze())
            return self._base

    def compact(self) -> Any:
        """Refreeze base ∪ delta into a new base snapshot generation.

        Called at dispatch boundaries (e.g. by the worker pool when the
        delta crosses its compaction threshold).  A no-op when the delta
        is empty.  Compaction changes *representation*, never content, so
        the mutation generation is untouched: a view pinned at generation
        G before the compaction and a fresh one pinned after it are
        interchangeable, and generation-keyed cache entries stay valid.

        The new base records what it folded in as ``folded_weights``: the
        previous base's generation and the edges re-weighted since it, so
        a memo entry filed before the compaction can still be vetted
        (:meth:`~repro.ctp.context.SearchContext.memo_get`).
        """
        with self._lock:
            self.ensure_base()
            if self._generation != self._base_generation:
                folded = (self._base_generation, frozenset(self._weight_overrides))
                self._set_base_locked(self.freeze())
                self._base.folded_weights = folded
                self._compactions += 1
            return self._base

    def delta_since_base(self) -> Any:
        """The (picklable) :class:`~repro.graph.delta.GraphDelta` since the base.

        Memoized per generation — repeated dispatches at one generation
        ship the same delta object.
        """
        from repro.graph.delta import GraphDelta

        with self._lock:
            self.ensure_base()
            cached = self._delta_cache
            if cached is not None and cached[0] == self._generation:
                return cached[1]
            delta = GraphDelta.capture(self)
            self._delta_cache = (self._generation, delta)
            return delta

    def read_view(self) -> Any:
        """A consistent frozen view of the graph *as of now* (MVCC snapshot).

        The base CSR itself when nothing mutated since the base froze,
        otherwise an :class:`~repro.graph.delta.OverlayGraph` merging the
        base with the current delta.  Views are immutable and memoized per
        generation: a request that pins one keeps a torn-read-free picture
        of the graph no matter how many mutations land while it evaluates.
        """
        with self._lock:
            base = self.ensure_base()
            cached = self._view_cache
            if cached is not None and cached[0] == self._generation:
                return cached[1]
            if self._generation == self._base_generation:
                view = base
            else:
                from repro.graph.delta import OverlayGraph

                view = OverlayGraph(base, self.delta_since_base(), view_source=self)
            self._view_cache = (self._generation, view)
            return view

    # ------------------------------------------------------------------
    # pickling (the lock is not picklable; caches/views are process-local)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "_nodes": self._nodes,
            "_edges": self._edges,
            "_adjacency": self._adjacency,
            "_nodes_by_label": self._nodes_by_label,
            "_nodes_by_type": self._nodes_by_type,
            "_edges_by_label": self._edges_by_label,
            "_generation": self._generation,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._frozen_snapshot = None
        self._lock = threading.RLock()
        self._init_mvcc_state()

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
        """Human-readable rendering of a set of edges (a CTP result)."""
        parts = sorted(self.describe_edge(e) for e in edge_ids)
        if not parts:
            return "(single node)"
        return "; ".join(parts)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"Graph({name} nodes={self.num_nodes}, edges={self.num_edges})"


def induced_edge_subgraph(graph: Graph, edge_ids: Iterable[int]) -> Dict[int, List[int]]:
    """Undirected adjacency (node -> neighbour list) of a subset of edges.

    Used to analyse CTP results: leaf detection, path checks, decomposition
    into simple edge sets (Definitions 4.5-4.7).
    """
    adjacency: Dict[int, List[int]] = {}
    for edge_id in edge_ids:
        edge = graph.edge(edge_id)
        adjacency.setdefault(edge.source, []).append(edge.target)
        adjacency.setdefault(edge.target, []).append(edge.source)
    return adjacency
