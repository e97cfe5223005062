"""Binary CSR snapshots: round-trip fidelity, lazy loading, error paths.

Layers:

* **round-trip** — save → load (mmap and plain) must reproduce the CSR
  view exactly: adjacency (order included), labels, types, properties,
  weights, endpoints, and the label/type indexes (id order *and* key
  order) — on hand-built graphs and, as a Hypothesis property, on graphs
  drawn to use every metadata feature, through pickling and under a
  delta overlay too;
* **lazy load** — ``load_snapshot`` allocates O(1) objects whatever the
  graph size, and saving replaces the file atomically;
* **query equivalence** — a Hypothesis property: on random graphs, every
  one of the 8 algorithms returns identical result rows on the loaded
  snapshot, and ``evaluate_query`` returns identical rows end-to-end;
* **error paths** — bad magic, unsupported version, truncation at any
  prefix, corrupt headers and inconsistent column shapes all raise
  :class:`SnapshotError` up front; a corrupt column value raises it where
  it is decoded;
* **fuzz** — flipped bytes, truncations and column-length edits either
  load to the original content or raise :class:`SnapshotError`, nothing
  else;
* **pickling** — the satellite regression: ``pickle.dumps(graph.freeze())``
  used to raise ``TypeError`` (memoryview columns); now CSRGraph
  round-trips through pickle, mmap-backed instances included.
"""

from __future__ import annotations

import gc
import json
import pickle
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ctp.registry import ALGORITHMS, evaluate_ctp
from repro.errors import GraphError, SnapshotError
from repro.graph.backend import CSRGraph
from repro.graph.delta import OverlayGraph
from repro.graph.datasets import figure1, figure1_seed_sets
from repro.graph.graph import Graph
from repro.graph.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    ensure_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.query.evaluator import evaluate_query
from repro.testing import random_graph, random_seed_sets, rich_graphs
from repro.workloads import scale_free_graph


def rich_graph() -> Graph:
    """A small graph exercising every metadata feature the format stores:
    types, properties, weights, parallel edges, self-loops, empty labels."""
    graph = Graph("rich")
    a = graph.add_node("Alice", types=("person", "engineer"), age=33, tags=["x", "y"])
    b = graph.add_node("Bob", types=("person",))
    c = graph.add_node("", types=())  # unlabeled node
    graph.add_edge(a, b, "knows", weight=2.5, since=2019)
    graph.add_edge(a, b, "knows", weight=0.5)  # parallel edge
    graph.add_edge(b, a, "mentors", weight=1.25)
    graph.add_edge(c, c, "self", weight=3.0)  # self-loop
    graph.add_edge(b, c, "", weight=1.0)  # empty edge label
    return graph


def _node_row(node):
    return (node.id, node.label, node.types, node.props)


def _edge_row(edge):
    return (edge.id, edge.source, edge.target, edge.label, edge.weight, edge.props)


def _unique_node(graph, label):
    try:
        return graph.find_node_by_label(label)
    except GraphError:
        return "not unique"


def _type_names(graph) -> list:
    """Type index keys in index order; an overlay keeps no index of its
    own, so for it the order a rebuild of its nodes would give."""
    index = getattr(graph, "_nodes_by_type", None)
    if index is None:
        return list(dict.fromkeys(name for node in graph.nodes() for name in node.types))
    return list(index)


def stored_content(graph) -> dict:
    """Every read a store answers from what it holds (the graph shape,
    the object accessors, adjacency, edge scalars and the label/type
    indexes with their key orders), as plain comparable values."""
    node_ids, edge_ids = list(graph.node_ids()), list(graph.edge_ids())
    return {
        "shape": (graph.name, graph.num_nodes, graph.num_edges),
        "ids": (node_ids, edge_ids),
        "nodes()": [_node_row(node) for node in graph.nodes()],
        "node(i)": [_node_row(graph.node(i)) for i in node_ids],
        "edges()": [_edge_row(edge) for edge in graph.edges()],
        "edge(i)": [_edge_row(graph.edge(i)) for i in edge_ids],
        "adjacent": [tuple(graph.adjacent(i)) for i in node_ids],
        "neighbor_ids": [tuple(graph.neighbor_ids(i)) for i in node_ids],
        "neighbors": [graph.neighbors(i) for i in node_ids],
        "degree": [graph.degree(i) for i in node_ids],
        "edge scalars": [
            (graph.edge_weight(i), graph.edge_label(i), graph.edge_endpoints(i)) for i in edge_ids
        ],
        "edge_source/target": [(graph.edge_source(i), graph.edge_target(i)) for i in edge_ids],
        "nodes_with_label": [(label, graph.nodes_with_label(label)) for label in graph.node_labels()],
        "find_node_by_label": [_unique_node(graph, label) for label in graph.node_labels()],
        "nodes_with_type": [(name, graph.nodes_with_type(name)) for name in _type_names(graph)],
        "edges_with_label": [(label, graph.edges_with_label(label)) for label in graph.edge_labels()],
    }


def graph_content(graph) -> dict:
    """Every read of the ``GraphBackend`` surface: :func:`stored_content`
    plus the reads that follow ids from one element to another
    (incident edge objects, node scans, the describe helpers)."""
    node_ids, edge_ids = list(graph.node_ids()), list(graph.edge_ids())
    return {
        **stored_content(graph),
        "out_edges": [[_edge_row(edge) for edge in graph.out_edges(i)] for i in node_ids],
        "in_edges": [[_edge_row(edge) for edge in graph.in_edges(i)] for i in node_ids],
        "find_nodes": graph.find_nodes(lambda node: bool(node.types) or not node.label),
        "describe_edge": [graph.describe_edge(i) for i in edge_ids],
        "describe_tree": (graph.describe_tree(edge_ids), graph.describe_tree(())),
    }


def assert_same_graph_view(left, right) -> None:
    """The full GraphBackend read surface matches, order included."""
    left_content, right_content = graph_content(left), graph_content(right)
    for read, value in left_content.items():
        assert value == right_content[read], read


def result_rows(result_set):
    return [(r.edges, r.nodes, r.seeds, r.weight, r.score) for r in result_set]


# ----------------------------------------------------------------------
# round-trip fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "arrays"])
    def test_figure1_roundtrip(self, tmp_path, use_mmap):
        graph = figure1()
        path = save_snapshot(graph, tmp_path / "fig1.snapshot")
        loaded = load_snapshot(path, use_mmap=use_mmap)
        assert_same_graph_view(graph.freeze(), loaded)
        assert loaded.backend == "csr"
        assert loaded.snapshot_path == str(path)

    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "arrays"])
    def test_rich_metadata_roundtrip(self, tmp_path, use_mmap):
        graph = rich_graph()
        path = save_snapshot(graph, tmp_path / "rich.snapshot")
        loaded = load_snapshot(path, use_mmap=use_mmap)
        assert_same_graph_view(graph.freeze(), loaded)
        assert loaded.node(0).property("age") == 33
        assert loaded.edge(0).property("since") == 2019
        assert loaded.describe_edge(0) == graph.describe_edge(0)

    def test_empty_and_tiny_graphs(self, tmp_path):
        empty = Graph("empty")
        loaded = load_snapshot(save_snapshot(empty, tmp_path / "empty.snapshot"))
        assert loaded.num_nodes == 0 and loaded.num_edges == 0
        single = Graph("single")
        single.add_node("only", types=("t",))
        loaded = load_snapshot(save_snapshot(single, tmp_path / "single.snapshot"))
        assert_same_graph_view(single.freeze(), loaded)

    def test_mmap_columns_are_zero_copy_views(self, tmp_path):
        path = save_snapshot(figure1(), tmp_path / "fig1.snapshot")
        loaded = load_snapshot(path, use_mmap=True)
        assert isinstance(loaded._adj_edge, memoryview)
        assert isinstance(loaded._offsets, memoryview)
        assert loaded._mmap is not None
        plain = load_snapshot(path, use_mmap=False)
        assert plain._mmap is None

    def test_snapshot_is_immutable(self, tmp_path):
        from repro.errors import GraphError

        loaded = load_snapshot(save_snapshot(figure1(), tmp_path / "g.snapshot"))
        with pytest.raises(GraphError):
            loaded.add_node("nope")
        with pytest.raises(GraphError):
            loaded.add_edge(0, 1, "nope")
        assert loaded.freeze() is loaded

    def test_save_accepts_frozen_and_mutable(self, tmp_path):
        graph = figure1()
        p1 = save_snapshot(graph, tmp_path / "a.snapshot")
        p2 = save_snapshot(graph.freeze(), tmp_path / "b.snapshot")
        assert_same_graph_view(load_snapshot(p1), load_snapshot(p2))

    def test_resave_of_loaded_snapshot(self, tmp_path):
        """An mmap-loaded snapshot can itself be saved again verbatim."""
        original = save_snapshot(figure1(), tmp_path / "a.snapshot")
        loaded = load_snapshot(original)
        copy = save_snapshot(loaded, tmp_path / "b.snapshot")
        assert_same_graph_view(loaded, load_snapshot(copy))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=rich_graphs(), use_mmap=st.booleans())
def test_roundtrip_is_elementwise_identical(tmp_path_factory, graph, use_mmap):
    """``load(save(g))`` ≡ ``g.freeze()`` read by read — also after a trip
    through pickle, and as the base of a delta overlay."""
    frozen = graph.freeze()
    path = save_snapshot(graph, tmp_path_factory.mktemp("rt") / "g.snapshot")
    loaded = load_snapshot(path, use_mmap=use_mmap)
    assert_same_graph_view(frozen, loaded)
    if loaded.num_nodes:
        assert loaded.node(0) is loaded.node(0)  # decoded once, then cached
    assert_same_graph_view(frozen, pickle.loads(pickle.dumps(load_snapshot(path, use_mmap=use_mmap))))
    # A fresh load under an overlay: the base is still undecoded when the
    # overlay (and the splice of its materialize()) first reads it.
    graph.ensure_base()
    node = graph.add_node("new", types=("t",), k=1)
    graph.add_edge(node, 0, "a", weight=0.5)
    graph.add_edge(node, node, "名前")
    delta = graph.delta_since_base()
    base = load_snapshot(path, use_mmap=use_mmap)
    base.base_generation = delta.base_generation  # as a worker's loaded base carries it
    overlay = OverlayGraph(base, delta)
    # (Type *key* order is first-insertion order while iterating each
    # node's type frozenset, which a rebuilt frozenset need not repeat;
    # no public read exposes it.)
    expected, rebuilt = graph_content(graph.freeze()), graph_content(overlay.materialize())
    for content in (expected, rebuilt):
        content["nodes_with_type"].sort()
    assert rebuilt == expected
    assert [_node_row(n) for n in overlay.nodes()] == [_node_row(n) for n in graph.nodes()]
    assert [_edge_row(e) for e in overlay.edges()] == [_edge_row(e) for e in graph.edges()]
    assert overlay.nodes_with_label("new") == graph.nodes_with_label("new")


class TestOneReadSurface:
    """The dict store and the overlay answer every read like the CSR
    freeze of the same generation."""

    @pytest.mark.parametrize("build", [figure1, rich_graph, lambda: Graph("empty")], ids=["figure1", "rich", "empty"])
    def test_dict_graph_reads_like_its_freeze(self, build):
        graph = build()
        assert_same_graph_view(graph, graph.freeze())

    @settings(max_examples=40, deadline=None)
    @given(graph=rich_graphs())
    def test_dict_graph_reads_like_its_freeze_property(self, graph):
        assert_same_graph_view(graph, graph.freeze())

    def test_overlay_reads_like_the_freeze_of_its_generation(self):
        graph = rich_graph()
        graph.ensure_base()
        dave = graph.add_node("Dave", types=("person",), age=40)
        graph.add_edge(0, dave, "knows", weight=0.75)  # base node -> delta node
        graph.add_edge(dave, dave, "self")  # self-loop in the delta
        graph.add_edge(2, 1, "mentors", weight=2.0)  # delta edge between base nodes
        graph.set_edge_weight(1, 4.0)  # re-weighted base edge
        overlay = graph.read_view()
        assert isinstance(overlay, OverlayGraph)
        assert_same_graph_view(overlay, graph.freeze())
        assert_same_graph_view(graph, overlay)


# ----------------------------------------------------------------------
# lazy load (O(1) objects) and atomic save
# ----------------------------------------------------------------------
class TestLazyLoadAndAtomicSave:
    def test_load_allocates_a_constant_number_of_objects(self, tmp_path):
        """No per-node / per-edge Python object is built by the load: the
        collector tracks a constant number of new objects, not O(n)."""
        graph = scale_free_graph(20_000, 40_000, seed=3).graph
        path = save_snapshot(graph, tmp_path / "big.snapshot")
        del graph
        load_snapshot(path)  # first call pays one-off imports
        gc.collect()
        before = len(gc.get_objects())
        loaded = load_snapshot(path)
        assert len(gc.get_objects()) - before < 1_000
        # Reads decode what they touch, and only that.
        assert loaded.node(19_999).label == "ent_19999"
        assert loaded.edge(39_999).id == 39_999
        assert loaded.nodes_with_type("person")[:1] == [next(
            node.id for node in loaded.nodes() if "person" in node.types
        )]

    def test_resave_does_not_disturb_an_existing_mapping(self, tmp_path):
        """Saving replaces the file (rename), it does not truncate it: a
        graph mapped from the old file keeps reading the old content."""
        path = tmp_path / "shared.snapshot"
        save_snapshot(figure1(), path)
        mapped = load_snapshot(path)
        expected = graph_content(figure1().freeze())
        save_snapshot(rich_graph(), path)  # smaller graph, same path
        assert graph_content(mapped) == expected
        assert_same_graph_view(rich_graph().freeze(), load_snapshot(path))
        assert [p.name for p in tmp_path.iterdir()] == ["shared.snapshot"]

    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "kept.snapshot"
        save_snapshot(figure1(), path)
        before = path.read_bytes()
        broken = Graph("unpicklable")
        broken.add_node("a", hook=lambda: None)  # lambda prop defeats pickle
        with pytest.raises(Exception):
            save_snapshot(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.snapshot"]


# ----------------------------------------------------------------------
# query equivalence (Hypothesis property across all 8 algorithms)
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rng_seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=3, max_value=9),
    extra_edges=st.integers(min_value=0, max_value=6),
)
def test_loaded_snapshot_rows_identical_across_algorithms(
    tmp_path_factory, rng_seed, num_nodes, extra_edges
):
    rng = random.Random(rng_seed)
    graph = random_graph(rng, num_nodes, num_nodes - 1 + extra_edges)
    seed_sets = random_seed_sets(rng, graph, 2)
    path = tmp_path_factory.mktemp("snap") / f"g{rng_seed}.snapshot"
    save_snapshot(graph, path)
    loaded = load_snapshot(path)
    assert_same_graph_view(graph.freeze(), loaded)
    for algorithm in sorted(ALGORITHMS):
        original = evaluate_ctp(graph.freeze(), seed_sets, algorithm, max_edges=3)
        snapshot = evaluate_ctp(loaded, seed_sets, algorithm, max_edges=3)
        assert result_rows(original) == result_rows(snapshot), algorithm


def test_evaluate_query_rows_identical_on_snapshot(tmp_path):
    query = """
    SELECT ?x ?w WHERE {
      CONNECT(?x, "France") AS ?w MAX 3
      FILTER(type(?x) = "entrepreneur")
    }
    """
    graph = figure1()
    loaded = load_snapshot(save_snapshot(graph, tmp_path / "fig1.snapshot"))
    original = evaluate_query(graph, query)
    snapshot = evaluate_query(loaded, query)
    assert original.columns == snapshot.columns
    assert [row[:-1] for row in original.rows] == [row[:-1] for row in snapshot.rows]
    assert [row[-1].edges for row in original.rows] == [row[-1].edges for row in snapshot.rows]


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
class TestErrorPaths:
    def fig1_bytes(self, tmp_path) -> bytes:
        path = save_snapshot(figure1(), tmp_path / "fig1.snapshot")
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.snapshot"
        bad.write_bytes(b"NOTASNAP" + self.fig1_bytes(tmp_path)[8:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(bad)

    def test_arbitrary_file_is_rejected(self, tmp_path):
        bad = tmp_path / "junk.snapshot"
        bad.write_bytes(b"hello world, definitely not a snapshot")
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.snapshot"
        bad.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(bad)

    def test_version_mismatch(self, tmp_path):
        raw = bytearray(self.fig1_bytes(tmp_path))
        raw[8:12] = struct.pack("<I", SNAPSHOT_VERSION + 1)
        bad = tmp_path / "future.snapshot"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(bad)

    @pytest.mark.parametrize("keep", [4, 12, 40, 200])
    def test_truncated_file(self, tmp_path, keep):
        raw = self.fig1_bytes(tmp_path)
        assert keep < len(raw)
        bad = tmp_path / f"trunc{keep}.snapshot"
        bad.write_bytes(raw[:keep])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(bad)

    def test_truncated_by_one_byte(self, tmp_path):
        raw = self.fig1_bytes(tmp_path)
        bad = tmp_path / "short.snapshot"
        bad.write_bytes(raw[:-1])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(bad)

    def test_corrupt_header_json(self, tmp_path):
        raw = bytearray(self.fig1_bytes(tmp_path))
        # Stomp the first header byte ('{' of the JSON) with garbage.
        raw[20] = 0xFF
        bad = tmp_path / "header.snapshot"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_snapshot(bad)

    def test_same_length_header_corruption_caught_by_crc(self, tmp_path):
        """A corrupted digit inside a column offset keeps the JSON valid and
        every length consistent — only the header checksum catches it."""
        raw = bytearray(self.fig1_bytes(tmp_path))
        header_len = struct.unpack_from("<I", raw, 12)[0]
        header = bytearray(raw[20 : 20 + header_len])
        digit_at = next(i for i, b in enumerate(header) if chr(b).isdigit())
        header[digit_at] = ord("0") if header[digit_at] != ord("0") else ord("1")
        raw[20 : 20 + header_len] = header
        bad = tmp_path / "flipped.snapshot"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(bad)

    @pytest.mark.parametrize(
        "kwargs", [{"use_mmap": False}, {"use_mmap": True, "verify_payload": True}]
    )
    def test_payload_bit_flip_caught_when_fully_read(self, tmp_path, kwargs):
        raw = bytearray(self.fig1_bytes(tmp_path))
        raw[-8] ^= 0xFF  # flip a byte inside the payload region
        bad = tmp_path / "payload.snapshot"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="payload"):
            load_snapshot(bad, **kwargs)

    def test_magic_and_version_constants_are_stable(self):
        # The on-disk contract: changing either is a format revision.
        assert SNAPSHOT_MAGIC == b"REPROSNP"
        assert SNAPSHOT_VERSION == 2


# ----------------------------------------------------------------------
# integrity contract of lazy reads, and fuzzing the loader
# ----------------------------------------------------------------------
def split_snapshot(raw: bytes):
    """``(header dict, payload bytearray)`` of a well-formed snapshot."""
    header_len = struct.unpack_from("<I", raw, 12)[0]
    data_start = (20 + header_len + 7) & ~7
    return json.loads(raw[20 : 20 + header_len]), bytearray(raw[data_start:])


def join_snapshot(header: dict, payload: bytes, version: int = SNAPSHOT_VERSION) -> bytes:
    """Re-assemble a file around an edited header (its CRC recomputed, so
    the edit reaches the checks behind the header checksum)."""
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = struct.pack("<8sIII", SNAPSHOT_MAGIC, version, len(blob), zlib.crc32(blob))
    padding = bytes(((20 + len(blob) + 7) & ~7) - 20 - len(blob))
    return prefix + blob + padding + bytes(payload)


def column_span(header: dict, name: str):
    return next((offset, nbytes) for column, _, offset, nbytes in header["columns"] if column == name)


def poke(payload: bytearray, header: dict, column: str, index: int, value: int) -> None:
    """Overwrite entry ``index`` of a ``q`` column in place."""
    offset, _ = column_span(header, column)
    struct.pack_into("<q", payload, offset + 8 * index, value)


@pytest.fixture(scope="module")
def rich_bytes(tmp_path_factory) -> bytes:
    return save_snapshot(rich_graph(), tmp_path_factory.mktemp("rich") / "rich.snapshot").read_bytes()


class TestIntegrityContract:
    def write(self, tmp_path, header, payload, **kwargs):
        bad = tmp_path / "edited.snapshot"
        bad.write_bytes(join_snapshot(header, payload, **kwargs))
        return bad

    def test_unedited_rewrite_loads(self, tmp_path, rich_bytes):
        header, payload = split_snapshot(rich_bytes)
        loaded = load_snapshot(self.write(tmp_path, header, payload), verify_payload=True)
        assert_same_graph_view(rich_graph().freeze(), loaded)

    def test_version_1_file_is_refused_with_a_recreate_hint(self, tmp_path, rich_bytes):
        header, payload = split_snapshot(rich_bytes)
        old = self.write(tmp_path, header, payload, version=1)
        with pytest.raises(SnapshotError, match=r"version 1 is not supported.*re-run `python -m repro snapshot`"):
            load_snapshot(old)

    @pytest.mark.parametrize(
        "column, delta",
        [
            ("node_label_offsets", -8),  # n entries instead of n + 1
            ("node_label_blob", -1),  # last offset != blob length
            ("node_typeset_ids", -8),  # n - 1 type-set ids
            ("type_index", -8),  # groups span more ids than the column has
            ("label_index", -8),
            ("_edge_label_ids", -8),
            ("label_index", 1 << 40),  # column runs past the payload
        ],
    )
    def test_inconsistent_column_shape_is_refused_at_load(self, tmp_path, rich_bytes, column, delta):
        header, payload = split_snapshot(rich_bytes)
        entry = next(c for c in header["columns"] if c[0] == column)
        entry[3] += delta
        with pytest.raises(SnapshotError, match="corrupt snapshot"):
            load_snapshot(self.write(tmp_path, header, payload))

    @pytest.mark.parametrize("field", ["num_nodes", "num_edges"])
    def test_count_mismatch_is_refused_at_load(self, tmp_path, rich_bytes, field):
        header, payload = split_snapshot(rich_bytes)
        header[field] += 1
        with pytest.raises(SnapshotError, match="corrupt snapshot"):
            load_snapshot(self.write(tmp_path, header, payload))

    def test_missing_column_and_bad_meta_span_are_refused(self, tmp_path, rich_bytes):
        header, payload = split_snapshot(rich_bytes)
        header["columns"] = [c for c in header["columns"] if c[0] != "node_typeset_ids"]
        with pytest.raises(SnapshotError, match="missing column"):
            load_snapshot(self.write(tmp_path, header, payload))
        header, payload = split_snapshot(rich_bytes)
        header["meta"][1] -= 1
        with pytest.raises(SnapshotError, match="metadata"):
            load_snapshot(self.write(tmp_path, header, payload))

    @pytest.mark.parametrize(
        "column, index, value, read",
        [
            ("node_label_offsets", 1, 1 << 40, lambda g: g.node(0)),  # end past the blob
            ("node_label_offsets", 1, -5, lambda g: g.node(1)),  # negative start
            ("node_label_offsets", 2, 3, lambda g: g.node(1)),  # start > end would clip
            ("node_label_offsets", 1, 1 << 40, lambda g: g.nodes_with_label("Bob")),
            ("node_typeset_ids", 0, 99, lambda g: g.node(0)),
            ("node_typeset_ids", 2, -1, lambda g: list(g.nodes())),
            ("_edge_label_ids", 0, 99, lambda g: g.edge(0)),
            ("_edge_label_ids", 0, 99, lambda g: g.edge_label(0)),
            ("_edge_label_ids", 3, -1, lambda g: list(g.edges())),
        ],
    )
    def test_out_of_range_value_raises_where_it_is_decoded(
        self, tmp_path, rich_bytes, column, index, value, read
    ):
        """A plain mmap load trusts column values; the lazy read that
        trips over one raises ``SnapshotError`` — never ``IndexError``, a
        clipped slice or a label read from the wrong end of the table."""
        header, payload = split_snapshot(rich_bytes)
        poke(payload, header, column, index, value)
        bad = self.write(tmp_path, header, payload)
        loaded = load_snapshot(bad)  # loads: nothing is decoded yet
        with pytest.raises(SnapshotError, match="corrupt snapshot"):
            read(loaded)
        for kwargs in ({"verify_payload": True}, {"use_mmap": False}):
            with pytest.raises(SnapshotError, match="payload"):
                load_snapshot(bad, **kwargs)

    def test_invalid_utf8_label_raises_snapshot_error(self, tmp_path, rich_bytes):
        header, payload = split_snapshot(rich_bytes)
        payload[column_span(header, "node_label_blob")[0]] = 0xFF  # first byte of "Alice"
        loaded = load_snapshot(self.write(tmp_path, header, payload))
        assert loaded.node(1).label == "Bob"  # other nodes still decode
        for read in (lambda: loaded.node(0), loaded.node_labels):
            with pytest.raises(SnapshotError, match="corrupt snapshot"):
                read()


def read_everything(path, **kwargs):
    """Load + every read of :func:`stored_content`, or the SnapshotError."""
    try:
        return stored_content(load_snapshot(path, **kwargs))
    except SnapshotError as error:
        return error


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    region=st.sampled_from(["prefix+header", "columns", "meta blob"]),
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    flip=st.integers(min_value=1, max_value=255),
)
def test_fuzz_single_byte_flip(tmp_path, rich_bytes, region, where, flip):
    """Any one flipped byte: the load and a full read either give the
    original content or raise ``SnapshotError`` — no other exception type
    escapes (``read_everything`` catches nothing else).  A flip a plain
    mmap load cannot see is one the payload checksum does see."""
    header, payload = split_snapshot(rich_bytes)
    data_start = len(rich_bytes) - len(payload)
    meta_offset = header["meta"][0]
    start, end = {
        "prefix+header": (0, data_start),
        "columns": (data_start, data_start + meta_offset),
        "meta blob": (data_start + meta_offset, len(rich_bytes)),
    }[region]
    position = start + int(where * (end - start))
    raw = bytearray(rich_bytes)
    raw[position] ^= flip
    bad = tmp_path / f"flip-{position}-{flip}.snapshot"
    bad.write_bytes(bytes(raw))
    original = stored_content(rich_graph().freeze())

    outcome = read_everything(bad)
    if region == "meta blob":
        assert isinstance(outcome, SnapshotError)
    elif region == "prefix+header":
        assert isinstance(outcome, SnapshotError) or outcome == original  # header padding
    if position >= data_start:
        for kwargs in ({"verify_payload": True}, {"use_mmap": False}):
            checked = read_everything(bad, **kwargs)
            assert isinstance(checked, SnapshotError) and "checksum mismatch" in str(checked)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keep=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_fuzz_truncation(tmp_path, rich_bytes, keep):
    bad = tmp_path / "truncated.snapshot"
    bad.write_bytes(rich_bytes[: int(keep * len(rich_bytes))])
    for kwargs in ({}, {"use_mmap": False}):
        outcome = read_everything(bad, **kwargs)
        assert isinstance(outcome, SnapshotError) and "truncated" in str(outcome)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    column=st.integers(min_value=0, max_value=12),
    field=st.sampled_from([2, 3]),  # offset, nbytes
    delta=st.sampled_from([-16, -8, -1, 1, 8, 16, 1 << 33]),
)
def test_fuzz_column_span_edits(tmp_path, rich_bytes, column, field, delta):
    """A header whose column spans were edited (and whose CRC was fixed
    up): shape checks refuse every length edit; a moved column of the same
    length is a value corruption, which decodes or raises ``SnapshotError``
    and which ``verify_payload`` is not asked to see."""
    header, payload = split_snapshot(rich_bytes)
    assert len(header["columns"]) == 13
    header["columns"][column][field] += delta
    bad = tmp_path / "span.snapshot"
    bad.write_bytes(join_snapshot(header, payload))
    outcome = read_everything(bad)
    if field == 3:
        assert isinstance(outcome, SnapshotError)


# ----------------------------------------------------------------------
# pickling (satellite regression) and ensure_snapshot
# ----------------------------------------------------------------------
class TestPickling:
    def test_frozen_graph_is_picklable(self):
        """Regression: memoryview adjacency columns made pickle.dumps raise
        TypeError on any frozen graph."""
        csr = figure1().freeze()
        clone = pickle.loads(pickle.dumps(csr))
        assert isinstance(clone, CSRGraph)
        assert_same_graph_view(csr, clone)

    def test_pickle_preserves_query_rows(self):
        graph = figure1()
        clone = pickle.loads(pickle.dumps(graph.freeze()))
        for seeds in (figure1_seed_sets(graph),):
            original = evaluate_ctp(graph.freeze(), seeds, "molesp", max_edges=3)
            cloned = evaluate_ctp(clone, seeds, "molesp", max_edges=3)
            assert result_rows(original) == result_rows(cloned)

    def test_mmap_backed_graph_is_picklable(self, tmp_path):
        loaded = load_snapshot(save_snapshot(rich_graph(), tmp_path / "rich.snapshot"))
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone._mmap is None  # the mapping never crosses the boundary
        assert_same_graph_view(loaded, clone)

    def test_pickle_drops_view_caches(self):
        csr = figure1().freeze()
        csr.adjacent(0)
        csr.adjacent_filtered(0, frozenset(["citizenOf"]))
        clone = pickle.loads(pickle.dumps(csr))
        assert clone._adj_cache == [None] * clone.num_nodes
        assert clone._filtered_cache == {}
        # ... and they rebuild on demand.
        assert clone.adjacent(0) == csr.adjacent(0)


class TestEnsureSnapshot:
    def test_reuses_existing_snapshot_file(self, tmp_path):
        path = save_snapshot(figure1(), tmp_path / "fig1.snapshot")
        loaded = load_snapshot(path)
        csr, reused = ensure_snapshot(loaded)
        assert csr is loaded
        assert reused == str(path)

    def test_writes_and_memoizes_temp_snapshot(self):
        import os

        graph = figure1()
        csr, path = ensure_snapshot(graph)
        try:
            assert os.path.exists(path)
            assert csr is graph.freeze()
            csr2, path2 = ensure_snapshot(graph)
            assert csr2 is csr and path2 == path  # serialized at most once
        finally:
            os.unlink(path)

    def test_save_memoizes_path_on_frozen_graph(self, tmp_path):
        graph = figure1()
        path = save_snapshot(graph, tmp_path / "fig1.snapshot")
        assert graph.freeze().snapshot_path == str(path)
        _, reused = ensure_snapshot(graph)
        assert reused == str(path)

    def test_overwritten_snapshot_file_is_not_reused(self, tmp_path):
        """Regression: a memoized path whose file now holds a DIFFERENT
        graph's snapshot must not be handed to worker processes."""
        import os

        big = figure1()
        path = tmp_path / "shared.snapshot"
        save_snapshot(big, path)
        small = rich_graph()
        save_snapshot(small, path)  # same file, different graph
        csr, resolved = ensure_snapshot(big)
        try:
            assert resolved != str(path)  # fell back to a fresh temp snapshot
            assert load_snapshot(resolved).num_nodes == big.num_nodes
        finally:
            os.unlink(resolved)

    def test_deleted_snapshot_file_is_rewritten(self, tmp_path):
        import os

        graph = figure1()
        path = save_snapshot(graph, tmp_path / "gone.snapshot")
        os.unlink(path)
        _, resolved = ensure_snapshot(graph)
        try:
            assert os.path.exists(resolved)
        finally:
            os.unlink(resolved)

    def test_failed_save_does_not_leak_temp_files(self, tmp_path, monkeypatch):
        """Regression: an unserializable graph used to leave one orphaned
        mkstemp file per dispatch attempt."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        graph = Graph("unpicklable")
        graph.add_node("a", hook=lambda: None)  # lambda prop defeats pickle
        for _ in range(3):
            with pytest.raises(Exception):
                ensure_snapshot(graph)
        assert list(tmp_path.iterdir()) == []
