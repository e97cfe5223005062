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

:class:`OverlayGraph` merges the two as the third store under the one
``GraphBackend`` read surface, so the CTP engines, traversal, and
baselines read a graph at generation G without knowing whether it is one
frozen file or base ∪ delta.  Reads reproduce a full re-freeze of the
same graph **exactly** — same adjacency order (base entries precede delta
entries, both in edge-insertion order, which is edge-id order), same index
order, same weights — so search results are bit-identical to evaluating
over a fresh :meth:`~repro.graph.graph.Graph.freeze`
(``tests/test_delta.py`` pins this per algorithm and per generation).

Lifecycle (driven by :class:`~repro.graph.graph.Graph` and its writer)::

    freeze base ──► mutations accumulate in the delta
         ▲               │ read_view() => OverlayGraph(base, delta)
         │               ▼
         └── compact() once an ingest batch leaves delta_size past
             QueryServer.compaction_threshold (the writer applies it)
             (OverlayGraph.materialize splices base ∪ delta from the
             base's columns, in time proportional to the delta plus
             C-level column copies; generation unchanged — same content;
             warm pool workers re-map the new base at their next dispatch,
             none respawns; the new base keeps the folded delta's
             re-weighted edge ids as ``folded_weights``, and nothing older)

A memo entry of the query layer filed at generation G0 is vetted against
a view at G1 with exactly these records — edges appended since G0, the
view's ``weight_overrides`` and its base's ``folded_weights`` — so an
entry older than the previous base is recomputed, never carried
(:meth:`~repro.ctp.context.SearchContext.memo_get`).

Everything here is immutable after construction: views can be shared
across request threads and shipped (delta only, encoded once per
generation) to worker processes.
"""

from __future__ import annotations

import pickle
from array import array
from collections import OrderedDict
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, itemgetter
from typing import Any, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import GraphError
from repro.graph.backend import CSRGraph, column_from_bytes
from repro.graph.graph import AdjacencyEntry, Edge, Graph, GraphBackend, Node, WeakBackReference


class GraphDelta:
    """Everything that happened to a graph since its base snapshot froze.

    A plain, picklable value object: the process-pool dispatcher encodes
    it once per generation (:meth:`encode`) and ships those bytes to
    workers that keep the (mmap-shared) base loaded, so a mutation costs
    bytes-proportional-to-the-delta instead of a full graph
    re-serialization.  All sequences are in insertion order — which for
    dense ids is id order — because the overlay's bit-identical-reads
    guarantee depends on reproducing the source graph's append order.
    """

    #: The pickled state; ``_encoded`` (the kept :meth:`encode` result)
    #: stays out of it.
    _STATE = (
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
    __slots__ = _STATE + ("_encoded",)

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
        self._encoded: Optional[EncodedDelta] = None

    @classmethod
    def capture(cls, graph: Graph) -> "GraphDelta":
        """Snapshot the delta of ``graph`` relative to its current base.

        Called by :meth:`Graph.delta_since_base` under the graph's lock.
        Node/edge objects are shared by reference — both are replaced
        copy-on-write (:meth:`Graph.update_node`,
        :meth:`Graph.set_edge_weight`), never changed in place, so sharing
        is safe.
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
        for node in nodes:
            nodes_by_label.setdefault(node.label, []).append(node.id)
        # Type suffixes come off the graph's own index: update_node files a
        # new node under a type in call order, not id order.  A base node
        # never changes, so the base's ids are a prefix of every list.
        base_types = graph._base._nodes_by_type
        nodes_by_type: Dict[str, List[int]] = {}
        for type_name, ids in graph._nodes_by_type.items():
            suffix = ids[len(base_types.get(type_name, ())):]
            if suffix:
                nodes_by_type[type_name] = suffix
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

    def encode(self) -> "EncodedDelta":
        """This delta as it crosses a process boundary, pickled on first use.

        The delta never changes, so the bytes are kept with it and every
        later dispatch at its generation ships them as they are: the
        parent pickles a generation once, not once per job.  Raises what
        :func:`pickle.dumps` raises for an unpicklable node or edge
        property, and keeps nothing then.  Two threads encoding at once
        may both pickle; either result is the same bytes.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = EncodedDelta((self.base_generation, self.generation), pickle.dumps(self))
            self._encoded = encoded
        return encoded

    def __getstate__(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self._STATE}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot in self._STATE:
            setattr(self, slot, state[slot])
        self._encoded = None

    def __repr__(self) -> str:
        return (
            f"GraphDelta(base_gen={self.base_generation}, gen={self.generation}, "
            f"+{len(self.nodes)} nodes, +{len(self.edges)} edges, "
            f"{len(self.weight_overrides)} overrides)"
        )


class EncodedDelta(NamedTuple):
    """A :class:`GraphDelta` on the wire: its pickled bytes, named by key.

    ``key`` is the delta's (base generation, generation), which fixes its
    content over one base, so a worker already holding the overlay for
    that key skips :meth:`decode`: however many jobs in a row ship one
    generation, each worker decodes it once.
    """

    key: Tuple[int, int]
    data: bytes

    def decode(self) -> GraphDelta:
        return pickle.loads(self.data)


class OverlayGraph(GraphBackend):
    """A frozen read view merging a CSR base with a :class:`GraphDelta`.

    Supplies the store primitives of
    :class:`~repro.graph.graph.GraphBackend` (element lookup, adjacency,
    edge scalars) and its own base-then-delta index getters; every derived
    read comes from the base class, so the 8 CTP algorithms run over it
    unchanged.  Reads are bit-identical to a full re-freeze of base ∪
    delta: ids are dense across the boundary, adjacency and index
    sequences concatenate base-then-delta in insertion order, and
    :meth:`edge` substitutes the delta's weight-overridden edge objects
    for their stale base-range originals.

    The view is immutable (``add_node``/``add_edge`` raise) and caches
    merged per-node adjacency like the CSR backend does, so repeated
    frontier expansion stays cheap.
    """

    backend = "overlay"
    _MUTATE_HINT = "mutate the source Graph and pin a new read_view()"
    #: The mutable Graph this view was pinned from, held weakly (``None``
    #: when the view was assembled elsewhere, e.g. inside a pool worker, or
    #: once that graph is gone).
    view_source = WeakBackReference()

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
        self.view_source = view_source
        self._num_nodes = base.num_nodes + len(delta.nodes)
        self._num_edges = base.num_edges + len(delta.edges)
        self._adj_cache: Dict[int, Tuple[AdjacencyEntry, ...]] = {}
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        self._filtered_cache: "OrderedDict[Tuple[int, FrozenSet[str]], Tuple[AdjacencyEntry, ...]]" = OrderedDict()

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
    # access
    # ------------------------------------------------------------------
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

    def _filter_adjacent(self, node_id: int, labels: FrozenSet[str]) -> Tuple[AdjacencyEntry, ...]:
        extra = self._delta.adjacency.get(node_id, ())
        if node_id < self._delta.num_base_nodes:
            filtered: Tuple[AdjacencyEntry, ...] = tuple(self._base.adjacent_filtered(node_id, labels))
        else:
            filtered = ()
        if extra:
            filtered += tuple(entry for entry in extra if self.edge_label(entry[0]) in labels)
        return filtered

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

    # ------------------------------------------------------------------
    # label / type indexes (base ids then the delta's suffix — each in the
    # graph's own insertion order, so the concatenation is the full freeze's)
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

    # ------------------------------------------------------------------
    # materialization (compaction, snapshotting an overlay)
    # ------------------------------------------------------------------
    def materialize(self) -> CSRGraph:
        """One CSR store holding base ∪ delta, spliced from the base's columns.

        :meth:`Graph.compact` builds each new base with it, and
        :func:`repro.graph.snapshot._freeze` when an overlay must become
        one flat file.  The result holds exactly what a full freeze of
        the same generation would (``tests/test_delta.py`` compares every
        column's bytes), but builds nothing from a dict store: the base's
        columns are copied in C — adjacency one byte slice per run of
        untouched nodes, each per-edge column whole — and Python touches
        only the delta's entries, its new label names and its index
        suffixes.  A node-label index the base has built is carried
        forward, not rebuilt.  Generation stamps are the caller's.
        """
        base, delta = self._base, self._delta
        offsets, adj_edge, adj_other, adj_out = _spliced_adjacency(base, delta)
        # --- per-edge columns: the base's, then the delta's edges; the
        # re-weights go in last, as they may name the delta's own edges ---
        edges = list(base._edges)
        edges.extend(delta.edges)
        weights = _copied(base._weights)
        weights.extend(map(attrgetter("weight"), delta.edges))
        for edge_id, weight in delta.weight_overrides.items():
            weights[edge_id] = weight
            edges[edge_id] = delta.override_edges[edge_id]
        sources = _copied(base._edge_source)
        sources.extend(map(attrgetter("source"), delta.edges))
        targets = _copied(base._edge_target)
        targets.extend(map(attrgetter("target"), delta.edges))
        codes = {name: code for code, name in enumerate(base._label_names)}
        label_ids = _copied(base._edge_label_ids)
        label_ids.extend(codes.setdefault(edge.label, len(codes)) for edge in delta.edges)
        # --- indexes: the base's ids, then the delta's suffixes ---
        nodes_by_type = {name: tuple(ids) for name, ids in base._nodes_by_type.items()}
        for name, ids in delta.nodes_by_type.items():
            nodes_by_type[name] = nodes_by_type.get(name, ()) + ids
        edges_by_label = {label: _copied(ids) for label, ids in base._edges_by_label.items()}
        for label, ids in delta.edges_by_label.items():
            edges_by_label.setdefault(label, array("q")).extend(ids)
        nodes = list(base._nodes)
        nodes.extend(delta.nodes)
        merged = CSRGraph._from_columns(
            self.name,
            nodes,
            edges,
            {
                "_offsets": offsets,
                "_adj_edge": adj_edge,
                "_adj_other": adj_other,
                "_adj_out": adj_out,
                "_weights": weights,
                "_edge_source": sources,
                "_edge_target": targets,
                "_edge_label_ids": label_ids,
            },
            list(codes),
            nodes_by_type,
            edges_by_label,
        )
        label_index = base._nodes_by_label
        if label_index is not None:
            # Untouched labels share the base's (never mutated) id lists.
            label_index = dict(label_index)
            for label, ids in delta.nodes_by_label.items():
                label_index[label] = [*label_index.get(label, ()), *ids]
            merged._nodes_by_label = label_index
        return merged

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"OverlayGraph({name} nodes={self.num_nodes}, edges={self.num_edges}, "
            f"base_gen={self.base_generation}, gen={self.generation})"
        )


def _copied(column: Any) -> "array":
    """A private ``array`` copy of a CSR column (an array or memoryview)."""
    return column_from_bytes(memoryview(column).format, memoryview(column).cast("B"))


def _spliced_adjacency(base: CSRGraph, delta: GraphDelta) -> Tuple["array", "array", "array", "array"]:
    """``(offsets, adj_edge, adj_other, adj_out)`` of base ∪ delta.

    A base node the delta touches keeps its slice and gains its delta
    entries after it, as :meth:`Graph.add_edge` appended them, so each
    column is runs of base entries (up to and including a touched node's
    slice), each followed by that node's delta entries; the new nodes'
    entries follow the last run.  Every run is one byte slice and each
    column one ``join``; offsets shift by the delta entries spliced in
    before them.
    """
    num_base_nodes = delta.num_base_nodes
    adjacency = delta.adjacency
    touched = sorted(node for node in adjacency if node < num_base_nodes)
    fresh = [adjacency.get(node, ()) for node in range(num_base_nodes, num_base_nodes + len(delta.nodes))]
    base_offsets = base._offsets
    steps = array("q", bytes(8 * (num_base_nodes + 1)))
    for node in touched:
        steps[node + 1] = len(adjacency[node])
    offsets = array("q", map(add, base_offsets, accumulate(steps)))
    offsets.extend(map(add, accumulate(map(len, fresh)), repeat(offsets[-1])))
    # Run i: base entries [ends[i-1], ends[i]), then delta entries
    # [spliced[i-1], spliced[i]) — spliced counts those in up to node i.
    ends = [base_offsets[node + 1] for node in touched]
    spliced = [offsets[node + 1] - end for node, end in zip(touched, ends)]
    entries = list(chain.from_iterable(map(adjacency.__getitem__, touched)))
    entries.extend(chain.from_iterable(fresh))
    runs = list(
        zip(
            zip([0, *ends], [*ends, base_offsets[num_base_nodes]]),
            zip([0, *spliced], [*spliced, len(entries)]),
        )
    )
    columns = []
    for field, base_column in enumerate((base._adj_edge, base._adj_other, base._adj_out)):
        added = array(base_column.format, map(itemgetter(field), entries))
        size = added.itemsize
        based, extra = base_column.cast("B"), memoryview(added).cast("B")
        chunks = []
        for (low, high), (first, last) in runs:
            chunks += (based[low * size : high * size], extra[first * size : last * size])
        columns.append(column_from_bytes(base_column.format, b"".join(chunks)))
    return (offsets, *columns)
