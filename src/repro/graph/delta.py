"""Delta overlays: MVCC graph generations over one frozen base snapshot.

The CSR backend (:mod:`repro.graph.backend`) is freeze-once: a single
``add_edge`` or ``set_edge_weight`` invalidates the whole snapshot, and a
process pool serving it would pay a full re-serialize + worker re-map per
mutation.  This module splits a mutating graph into

``base``
    a frozen :class:`~repro.graph.backend.CSRGraph` snapshot (possibly
    mmap-shared across worker processes), taken at some *base generation*;

``delta``
    a :class:`GraphDelta` — the cheap, picklable record of everything that
    happened since: appended nodes/edges, every edge re-weighted since,
    and the per-label/type index suffixes those appends imply.

:class:`OverlayGraph` merges the two behind the existing ``GraphBackend``
protocol, so the CTP engines, traversal, and baselines read a graph at
generation G without knowing whether it is one frozen file or base ∪
delta.  Reads reproduce a full re-freeze of the same graph **exactly** —
same adjacency order (base entries precede delta entries, both in
edge-insertion order, which is edge-id order), same index order, same
weights — so search results are bit-identical to evaluating over a fresh
:meth:`~repro.graph.graph.Graph.freeze` (``tests/test_delta.py`` pins
this per algorithm and per generation).

Lifecycle (driven by :class:`~repro.graph.graph.Graph` and the worker
pool)::

    freeze base ──► mutations accumulate in the delta
         ▲               │ read_view() => OverlayGraph(base, delta)
         │               ▼
         └── compact() when delta_size crosses the pool's threshold
             (refreeze base ∪ delta; generation unchanged — same content;
             warm pool workers re-map the new base, none respawns; the
             new base keeps the folded delta's re-weighted edge ids as
             ``folded_weights``, and nothing older)

A memo entry of the query layer filed at generation G0 is vetted against
a view at G1 with exactly these records — edges appended since G0, the
view's ``weight_overrides`` and its base's ``folded_weights`` — so an
entry older than the previous base is recomputed, never carried
(:meth:`~repro.ctp.context.SearchContext.memo_get`).

Everything here is immutable after construction: views can be shared
across request threads and shipped (delta only) to worker processes.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import GraphError
from repro.graph.graph import AdjacencyEntry, Edge, Graph, Node


class GraphDelta:
    """Everything that happened to a graph since its base snapshot froze.

    A plain, picklable value object: the process-pool dispatcher ships it
    per dispatch to workers that keep the (mmap-shared) base loaded, so a
    mutation costs bytes-proportional-to-the-delta instead of a full graph
    re-serialization.  All sequences are in insertion order — which for
    dense ids is id order — because the overlay's bit-identical-reads
    guarantee depends on reproducing the source graph's append order.
    """

    __slots__ = (
        "base_generation",
        "generation",
        "num_base_nodes",
        "num_base_edges",
        "nodes",
        "edges",
        "weight_overrides",
        "override_edges",
        "adjacency",
        "nodes_by_label",
        "nodes_by_type",
        "edges_by_label",
    )

    def __init__(
        self,
        base_generation: int,
        generation: int,
        num_base_nodes: int,
        num_base_edges: int,
        nodes: Tuple[Node, ...],
        edges: Tuple[Edge, ...],
        weight_overrides: Dict[int, float],
        override_edges: Dict[int, Edge],
        adjacency: Dict[int, Tuple[AdjacencyEntry, ...]],
        nodes_by_label: Dict[str, Tuple[int, ...]],
        nodes_by_type: Dict[str, Tuple[int, ...]],
        edges_by_label: Dict[str, Tuple[int, ...]],
    ):
        self.base_generation = base_generation
        self.generation = generation
        self.num_base_nodes = num_base_nodes
        self.num_base_edges = num_base_edges
        self.nodes = nodes
        self.edges = edges
        self.weight_overrides = weight_overrides
        self.override_edges = override_edges
        self.adjacency = adjacency
        self.nodes_by_label = nodes_by_label
        self.nodes_by_type = nodes_by_type
        self.edges_by_label = edges_by_label

    @classmethod
    def capture(cls, graph: Graph) -> "GraphDelta":
        """Snapshot the delta of ``graph`` relative to its current base.

        Called by :meth:`Graph.delta_since_base` under the graph's lock.
        Node/edge objects are shared by reference — they are immutable
        (edges) or append-only metadata (nodes), so sharing is safe.
        """
        if graph.base_generation is None:
            raise GraphError("cannot capture a delta before a base snapshot exists")
        num_base_nodes = graph._base_num_nodes
        num_base_edges = graph._base_num_edges
        nodes = tuple(graph._nodes[num_base_nodes:])
        edges = tuple(graph._edges[num_base_edges:])
        # Adjacency suffixes: replaying the new edges in id order appends
        # entries exactly as Graph.add_edge did, per touched node.
        adjacency: Dict[int, List[AdjacencyEntry]] = {}
        for edge in edges:
            adjacency.setdefault(edge.source, []).append((edge.id, edge.target, True))
            if edge.target != edge.source:
                adjacency.setdefault(edge.target, []).append((edge.id, edge.source, False))
        for node in nodes:
            adjacency.setdefault(node.id, [])
        nodes_by_label: Dict[str, List[int]] = {}
        nodes_by_type: Dict[str, List[int]] = {}
        for node in nodes:
            nodes_by_label.setdefault(node.label, []).append(node.id)
            for type_name in node.types:
                nodes_by_type.setdefault(type_name, []).append(node.id)
        edges_by_label: Dict[str, List[int]] = {}
        for edge in edges:
            edges_by_label.setdefault(edge.label, []).append(edge.id)
        weight_overrides = dict(graph._weight_overrides)
        override_edges = {edge_id: graph._edges[edge_id] for edge_id in weight_overrides}
        return cls(
            base_generation=graph.base_generation,
            generation=graph.generation,
            num_base_nodes=num_base_nodes,
            num_base_edges=num_base_edges,
            nodes=nodes,
            edges=edges,
            weight_overrides=weight_overrides,
            override_edges=override_edges,
            adjacency={node_id: tuple(entries) for node_id, entries in adjacency.items()},
            nodes_by_label={label: tuple(ids) for label, ids in nodes_by_label.items()},
            nodes_by_type={name: tuple(ids) for name, ids in nodes_by_type.items()},
            edges_by_label={label: tuple(ids) for label, ids in edges_by_label.items()},
        )

    @property
    def size(self) -> int:
        """Mutation count: appended nodes + appended edges + weight overrides."""
        return len(self.nodes) + len(self.edges) + len(self.weight_overrides)

    def __getstate__(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self) -> str:
        return (
            f"GraphDelta(base_gen={self.base_generation}, gen={self.generation}, "
            f"+{len(self.nodes)} nodes, +{len(self.edges)} edges, "
            f"{len(self.weight_overrides)} overrides)"
        )


class OverlayGraph:
    """A frozen read view merging a CSR base with a :class:`GraphDelta`.

    Implements the full ``GraphBackend`` read surface (plus the
    ``out_edges``/``in_edges``/``nodes``/``edges``/``find_nodes``/describe
    helpers the BGP evaluator and scorers use), so the 8 CTP algorithms
    run over it unchanged.  Reads are bit-identical to a full re-freeze of
    base ∪ delta: ids are dense across the boundary, adjacency and index
    sequences concatenate base-then-delta in insertion order, and
    :meth:`edge` substitutes the delta's weight-overridden edge objects
    for their stale base-range originals.

    The view is immutable (``add_node``/``add_edge`` raise) and caches
    merged per-node adjacency like the CSR backend does, so repeated
    frontier expansion stays cheap.
    """

    backend = "overlay"
    frozen = True

    def __init__(self, base: Any, delta: GraphDelta, view_source: Optional[Graph] = None):
        if delta.num_base_nodes != base.num_nodes or delta.num_base_edges != base.num_edges:
            raise GraphError(
                f"delta was captured against a base of {delta.num_base_nodes} nodes / "
                f"{delta.num_base_edges} edges, got one of {base.num_nodes} / {base.num_edges}"
            )
        base_generation = getattr(base, "base_generation", None)
        if base_generation is not None and base_generation != delta.base_generation:
            raise GraphError(
                f"delta base generation {delta.base_generation} does not match "
                f"base snapshot generation {base_generation}"
            )
        self.name = base.name
        self._base = base
        self._delta = delta
        #: The mutable Graph this view was pinned from (None when the view
        #: was assembled elsewhere, e.g. inside a pool worker).
        self.view_source = view_source
        self._num_nodes = base.num_nodes + len(delta.nodes)
        self._num_edges = base.num_edges + len(delta.edges)
        self._adj_cache: Dict[int, Tuple[AdjacencyEntry, ...]] = {}
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        self._filtered_cache: Dict[Tuple[int, FrozenSet[str]], Tuple[AdjacencyEntry, ...]] = {}

    # ------------------------------------------------------------------
    # generation identity
    # ------------------------------------------------------------------
    @property
    def base(self) -> Any:
        return self._base

    @property
    def delta(self) -> GraphDelta:
        return self._delta

    @property
    def generation(self) -> int:
        """Source generation this view pins (the delta's capture generation)."""
        return self._delta.generation

    @property
    def base_generation(self) -> int:
        return self._delta.base_generation

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def add_node(self, *args: Any, **kwargs: Any) -> int:
        raise GraphError(
            "cannot add_node to a frozen OverlayGraph; "
            "mutate the source Graph and pin a new read_view()"
        )

    def add_edge(self, *args: Any, **kwargs: Any) -> int:
        raise GraphError(
            "cannot add_edge to a frozen OverlayGraph; "
            "mutate the source Graph and pin a new read_view()"
        )

    def freeze(self, force: bool = False) -> "OverlayGraph":
        """Already frozen — an overlay is itself an immutable view."""
        return self

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
        if node_id >= self._delta.num_base_nodes:
            try:
                return self._delta.nodes[node_id - self._delta.num_base_nodes]
            except IndexError:
                raise GraphError(f"unknown node id {node_id}") from None
        return self._base.node(node_id)

    def edge(self, edge_id: int) -> Edge:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            try:
                return delta.edges[edge_id - delta.num_base_edges]
            except IndexError:
                raise GraphError(f"unknown edge id {edge_id}") from None
        # Weight-overridden base edges: the base snapshot still holds the
        # edge object frozen with it — substitute the delta's current one.
        overridden = delta.override_edges.get(edge_id)
        if overridden is not None:
            return overridden
        return self._base.edge(edge_id)

    def nodes(self) -> Iterator[Node]:
        yield from self._base.nodes()
        yield from self._delta.nodes

    def edges(self) -> Iterator[Edge]:
        override_edges = self._delta.override_edges
        if override_edges:
            for edge in self._base.edges():
                yield override_edges.get(edge.id, edge)
        else:
            yield from self._base.edges()
        yield from self._delta.edges

    def node_ids(self) -> range:
        return range(self._num_nodes)

    def edge_ids(self) -> range:
        return range(self._num_edges)

    # ------------------------------------------------------------------
    # adjacency (base entries precede delta entries, both in edge-id order —
    # exactly the append order a full re-freeze would have recorded)
    # ------------------------------------------------------------------
    def adjacent(self, node_id: int) -> Tuple[AdjacencyEntry, ...]:
        cached = self._adj_cache.get(node_id)
        if cached is None:
            extra = self._delta.adjacency.get(node_id)
            if node_id < self._delta.num_base_nodes:
                base_entries = tuple(self._base.adjacent(node_id))
                cached = base_entries if not extra else base_entries + extra
            elif node_id < self._num_nodes:
                cached = extra or ()
            else:
                raise GraphError(f"unknown node id {node_id}")
            self._adj_cache[node_id] = cached
        return cached

    def adjacent_filtered(
        self, node_id: int, labels: Optional[Iterable[str]] = None
    ) -> Tuple[AdjacencyEntry, ...]:
        if labels is None:
            return self.adjacent(node_id)
        if not isinstance(labels, frozenset):
            labels = frozenset(labels)
        key = (node_id, labels)
        cached = self._filtered_cache.get(key)
        if cached is None:
            extra = self._delta.adjacency.get(node_id, ())
            if node_id < self._delta.num_base_nodes:
                filtered: Tuple[AdjacencyEntry, ...] = tuple(
                    self._base.adjacent_filtered(node_id, labels)
                )
            else:
                filtered = ()
            if extra:
                filtered += tuple(
                    entry for entry in extra if self.edge_label(entry[0]) in labels
                )
            self._filtered_cache[key] = cached = filtered
        return cached

    def degree(self, node_id: int) -> int:
        return len(self.adjacent(node_id))

    def neighbor_ids(self, node_id: int) -> Tuple[int, ...]:
        cached = self._neighbor_cache.get(node_id)
        if cached is None:
            extra = self._delta.adjacency.get(node_id)
            if node_id < self._delta.num_base_nodes and extra:
                # Base neighbours are already first-occurrence-deduped in
                # adjacency order; folding the delta's others through the
                # same dict preserves the full-freeze dedup order.
                merged = dict.fromkeys(self._base.neighbor_ids(node_id))
                merged.update(dict.fromkeys(other for _, other, _ in extra))
                cached = tuple(merged)
            elif node_id < self._delta.num_base_nodes:
                cached = tuple(self._base.neighbor_ids(node_id))
            else:
                cached = tuple(dict.fromkeys(other for _, other, _ in self.adjacent(node_id)))
            self._neighbor_cache[node_id] = cached
        return cached

    def neighbors(self, node_id: int) -> List[int]:
        return list(self.neighbor_ids(node_id))

    def out_edges(self, node_id: int) -> List[Edge]:
        return [self.edge(e) for e, _, outgoing in self.adjacent(node_id) if outgoing]

    def in_edges(self, node_id: int) -> List[Edge]:
        return [self.edge(e) for e, _, outgoing in self.adjacent(node_id) if not outgoing]

    # ------------------------------------------------------------------
    # per-edge scalar accessors
    # ------------------------------------------------------------------
    def edge_weight(self, edge_id: int) -> float:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            return delta.edges[edge_id - delta.num_base_edges].weight
        override = delta.weight_overrides.get(edge_id)
        if override is not None:
            return override
        return self._base.edge_weight(edge_id)

    def edge_label(self, edge_id: int) -> str:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            return delta.edges[edge_id - delta.num_base_edges].label
        return self._base.edge_label(edge_id)

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            edge = delta.edges[edge_id - delta.num_base_edges]
            return edge.source, edge.target
        return self._base.edge_endpoints(edge_id)

    def edge_source(self, edge_id: int) -> int:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            return delta.edges[edge_id - delta.num_base_edges].source
        return self._base.edge_source(edge_id)

    def edge_target(self, edge_id: int) -> int:
        delta = self._delta
        if edge_id >= delta.num_base_edges:
            return delta.edges[edge_id - delta.num_base_edges].target
        return self._base.edge_target(edge_id)

    # ------------------------------------------------------------------
    # label / type indexes (base ids then delta ids — both ascending, so the
    # concatenation is exactly the full-freeze insertion order)
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: str) -> List[int]:
        combined = self._base.nodes_with_label(label)
        combined.extend(self._delta.nodes_by_label.get(label, ()))
        return combined

    def nodes_with_type(self, type_name: str) -> List[int]:
        combined = self._base.nodes_with_type(type_name)
        combined.extend(self._delta.nodes_by_type.get(type_name, ()))
        return combined

    def edges_with_label(self, label: str) -> List[int]:
        combined = self._base.edges_with_label(label)
        combined.extend(self._delta.edges_by_label.get(label, ()))
        return combined

    def node_labels(self) -> List[str]:
        labels = list(self._base.node_labels())
        seen = set(labels)
        labels.extend(label for label in self._delta.nodes_by_label if label not in seen)
        return labels

    def edge_labels(self) -> List[str]:
        labels = list(self._base.edge_labels())
        seen = set(labels)
        labels.extend(label for label in self._delta.edges_by_label if label not in seen)
        return labels

    def find_nodes(self, predicate: Callable[[Node], bool]) -> List[int]:
        return [node.id for node in self.nodes() if predicate(node)]

    def find_node_by_label(self, label: str) -> int:
        ids = self.nodes_with_label(label)
        if len(ids) != 1:
            raise GraphError(f"expected exactly one node labelled {label!r}, found {len(ids)}")
        return ids[0]

    # ------------------------------------------------------------------
    # materialization (equivalence tests, slow-path snapshotting)
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Rebuild a mutable :class:`Graph` holding base ∪ delta."""
        graph = Graph(self.name)
        for node in self.nodes():
            node_id = graph.add_node(node.label, node.types)
            if node.props:
                graph._nodes[node_id].props.update(node.props)
        for edge in self.edges():
            edge_id = graph.add_edge(edge.source, edge.target, edge.label, edge.weight)
            if edge.props:
                graph._edges[edge_id].props.update(edge.props)
        return graph

    def materialize(self) -> Any:
        """A full CSR snapshot of base ∪ delta (one frozen file, no overlay).

        The slow path: used when an overlay must become a standalone
        snapshot (e.g. the non-pooled process dispatcher serializing the
        view).  The pooled path never calls this — it ships the delta.
        """
        return self.to_graph().freeze()

    # ------------------------------------------------------------------
    # display helpers
    # ------------------------------------------------------------------
    def describe_edge(self, edge_id: int) -> str:
        edge = self.edge(edge_id)
        source = self.node(edge.source).label or str(edge.source)
        target = self.node(edge.target).label or str(edge.target)
        label = edge.label or "-"
        return f"{source} -[{label}]-> {target}"

    def describe_tree(self, edge_ids: Iterable[int]) -> str:
        parts = sorted(self.describe_edge(e) for e in edge_ids)
        if not parts:
            return "(single node)"
        return "; ".join(parts)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"OverlayGraph({name} nodes={self.num_nodes}, edges={self.num_edges}, "
            f"base_gen={self.base_generation}, gen={self.generation})"
        )
