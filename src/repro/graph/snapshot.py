"""Binary CSR snapshots: one file, many processes, zero-copy columns.

The process-pool dispatcher (:mod:`repro.query.parallel`) needs every
worker to see the *same* graph without paying a per-worker copy of it.
This module gives :class:`~repro.graph.backend.CSRGraph` a binary on-disk
form in which topology **and** metadata are flat columns, written verbatim,
8-byte aligned, and loaded back as ``mmap``-backed ``memoryview`` casts —
so N workers mapping one snapshot share one physical copy (the kernel page
cache), and a load costs what it touches: mapping the file, checking the
header, and unpickling a blob whose size follows the number of *distinct*
labels, type sets and non-empty property dicts, not the graph's.

File layout (version 2)::

    bytes 0-7    magic  b"REPROSNP"
    bytes 8-11   format version  (uint32, little-endian)
    bytes 12-15  header length H (uint32, little-endian)
    bytes 16-19  CRC-32 of the header JSON (uint32, little-endian)
    bytes 20-    header: UTF-8 JSON describing the payload sections
    data_start = 20 + H rounded up to the next multiple of 8
    data_start- column payloads (each 8-byte aligned, offsets relative to
                 data_start) followed by the pickled metadata blob

The header records the byte order, node/edge counts, the
``(name, typecode, offset, nbytes)`` of every column, the metadata blob's
``(offset, nbytes, CRC-32)``, the total payload size, and a CRC-32 of the
payload region.  Columns (n nodes, m edges, a adjacency entries)::

    _offsets            q  n+1  adjacency slice bounds per node
    _adj_edge/_adj_other q a    incident edge id / other endpoint
    _adj_out            b  a    1 when the edge leaves the node
    _weights            d  m    edge weights
    _edge_source/_edge_target q m  endpoints
    _edge_label_ids     q  m    index into the blob's ``label_names``
    node_label_blob     B  -    all node labels, UTF-8, concatenated
    node_label_offsets  q  n+1  label i = blob[offsets[i]:offsets[i+1]]
    node_typeset_ids    q  n    index into the blob's ``typesets`` table
    type_index          q  -    node ids grouped by type
    label_index         q  m    edge ids grouped by label

and the metadata blob is one pickled dict: graph ``name``,
``label_names``, ``typesets`` (the distinct type sets), ``type_groups`` /
``label_groups`` (``(key, count)`` per group of the two grouped columns, in
index key order), ``node_props`` / ``edge_props`` (``{id: props}`` of the
non-empty property dicts only) and ``source_generation``.

**What is lazy.**  :func:`load_snapshot` builds no per-node or per-edge
object.  ``node(i)`` / ``edge(i)`` / ``nodes()`` / ``edges()`` of a loaded
graph are served by sequences that decode one :class:`Node` / :class:`Edge`
from the columns on first access and cache it; the type and edge-label
indexes are slices of their grouped columns; the node-label index is
derived from the label column on first use (it is not stored).

**Integrity contract.**  Always checked at load, in O(header + blob): magic,
version, header CRC, byte order, truncation, every column's bounds and
shape (lengths against n / m / a, last label offset == blob length, group
counts summing to their column), and the metadata blob's CRC.  The payload
CRC is checked whenever the file is fully read — ``use_mmap=False``, or
``verify_payload=True`` — but NOT on a plain mmap load: checksumming would
fault in every column page the mapping leaves untouched, so an mmap load
trusts column *values* the way it trusts any mapped file.  What a lazy
read can still trip over is range-checked where it is decoded: a label
offset outside the blob, bytes that are not UTF-8, a type-set id or edge
label id outside its table raise :class:`~repro.errors.SnapshotError` —
never ``IndexError`` / ``UnicodeDecodeError``, never a clipped slice.
Snapshots are re-creatable transport artefacts: other format versions are
refused, not converted.

Entry points:

:func:`save_snapshot`
    Freeze (if needed) and serialize a graph; memoizes the path on the
    snapshot so later dispatches reuse the file.
:func:`load_snapshot`
    Load a snapshot, zero-copy via ``mmap`` by default (``use_mmap=False``
    materializes plain ``array`` columns instead).
:func:`ensure_snapshot`
    The dispatcher's helper: return an existing snapshot file for a graph
    or write one to a pid-tagged temp file (released eagerly via
    :func:`release_auto_snapshot` when the owning pool closes, at
    interpreter exit otherwise; orphans of dead processes are reaped on
    later ``ensure_snapshot`` calls).
"""

from __future__ import annotations

import atexit
import json
import mmap
import os
import pickle
import re
import struct
import sys
import tempfile
import zlib
from array import array
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import GraphError, SnapshotError
from repro.graph.backend import CSRGraph, column_from_bytes, dictionary_encode
from repro.graph.graph import Edge, Node

PathLike = Union[str, Path]

#: First 8 bytes of every snapshot file.
SNAPSHOT_MAGIC = b"REPROSNP"
#: Format version this build writes and the only one it reads.
SNAPSHOT_VERSION = 2

_PREFIX = struct.Struct("<8sIII")  # magic, version, header length, header CRC-32

#: Every column of the file, in order: the topology columns of
#: ``CSRGraph``, then the metadata columns — (name, typecode).
_COLUMN_SPECS: Tuple[Tuple[str, str], ...] = CSRGraph._COLUMN_SPECS + (
    ("node_label_blob", "B"),
    ("node_label_offsets", "q"),
    ("node_typeset_ids", "q"),
    ("type_index", "q"),
    ("label_index", "q"),
)
_ITEMSIZE = {"q": 8, "d": 8, "b": 1, "B": 1}


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _freeze(graph: Any) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    from repro.graph.delta import OverlayGraph  # local: delta imports graph

    if isinstance(graph, OverlayGraph):
        # An overlay's freeze() is itself; serialization needs one flat CSR.
        return graph.materialize()
    freezer = getattr(graph, "freeze", None)
    if freezer is None:
        raise GraphError(f"cannot snapshot {type(graph).__name__!r}: not a Graph/CSRGraph")
    return freezer()


def _grouped(index: Mapping[str, Any]) -> Tuple["array", List[Tuple[str, int]]]:
    """An id index as one grouped id column + ``(key, count)`` per group."""
    column = array("q")
    for ids in index.values():
        if isinstance(ids, (array, memoryview)):  # one memcpy
            column.frombytes(memoryview(ids).cast("B"))
        else:
            column.extend(ids)
    return column, [(key, len(ids)) for key, ids in index.items()]


def _sparse_props(items: Sequence[Any]) -> Dict[int, Dict[str, Any]]:
    return {i: props for i, props in enumerate(map(attrgetter("props"), items)) if props}


def save_snapshot(graph: Any, path: PathLike) -> Path:
    """Serialize ``graph`` (frozen on the fly if needed) to ``path``.

    The written file is self-describing (see the module docstring).  Column
    buffers are checksummed and written in place — no concatenated copy of
    the payload is built — into a sibling temp file that is renamed over
    ``path`` once complete: a process that has the old file mapped keeps
    its pages, and a crash mid-write leaves no half file at ``path``.  On
    success the snapshot's :attr:`~repro.graph.backend.CSRGraph.snapshot_path`
    is set to ``path`` so process-pool dispatches over the same graph
    reuse the file instead of re-serializing.
    """
    csr = _freeze(graph)
    nodes, edges = csr._nodes, csr._edges
    # surrogatepass: a label is any str (pickle carried them all in v1).
    labels = [label.encode("utf-8", "surrogatepass") for label in map(attrgetter("label"), nodes)]
    typesets, typeset_ids = dictionary_encode(map(attrgetter("types"), nodes))
    buffers = {attr: csr.__dict__[attr] for attr, _ in csr._COLUMN_SPECS}
    buffers["node_label_blob"] = b"".join(labels)
    buffers["node_label_offsets"] = array("q", list(accumulate(map(len, labels), initial=0)))
    buffers["node_typeset_ids"] = typeset_ids
    buffers["type_index"], type_groups = _grouped(csr._nodes_by_type)
    buffers["label_index"], label_groups = _grouped(csr._edges_by_label)
    meta_blob = pickle.dumps(
        {
            "name": csr.name,
            "label_names": list(csr._label_names),
            "typesets": [tuple(sorted(types)) for types in typesets],
            "type_groups": type_groups,
            "label_groups": label_groups,
            "node_props": _sparse_props(nodes),
            "edge_props": _sparse_props(edges),
            # MVCC: the source generation this snapshot can serve as a delta
            # base for (None when the CSR has no live lineage, e.g. round-
            # tripped through pickle).
            "source_generation": getattr(csr, "base_generation", csr.source_generation),
        },
        protocol=4,
    )

    # Pass 1: lay the sections out, 8-byte aligned, and checksum them
    # where they are (zlib and write() both take any buffer).
    parts: List[Any] = []  # alignment padding and buffers, in file order
    columns = []
    size = crc = 0
    for name, typecode in _COLUMN_SPECS + (("meta", "B"),):
        buffer = meta_blob if name == "meta" else buffers[name]
        padding = bytes(_align8(size) - size)
        crc = zlib.crc32(buffer, zlib.crc32(padding, crc))
        parts += (padding, buffer)
        nbytes = memoryview(buffer).nbytes
        columns.append([name, typecode, size + len(padding), nbytes])
        size += len(padding) + nbytes
    _, _, meta_offset, meta_len = columns.pop()
    header = {
        "byteorder": sys.byteorder,
        "num_nodes": csr.num_nodes,
        "num_edges": csr.num_edges,
        "columns": columns,
        "meta": [meta_offset, meta_len, zlib.crc32(meta_blob)],
        "data_bytes": size,
        "payload_crc32": crc,
    }
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = _align8(_PREFIX.size + len(header_blob))

    # Pass 2: stream prefix, header and parts to a sibling temp file.
    # Its name keeps the target's prefix and suffix, so the temp of an
    # auto-snapshot is reaped like one if this process dies mid-write.
    path = Path(path)
    tmp_path = path.with_name(f"{path.stem}.{os.urandom(4).hex()}.tmp{path.suffix}")
    try:
        with open(tmp_path, "xb") as handle:
            handle.write(
                _PREFIX.pack(
                    SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(header_blob), zlib.crc32(header_blob)
                )
            )
            handle.write(header_blob)
            handle.write(bytes(data_start - _PREFIX.size - len(header_blob)))
            for part in parts:
                handle.write(part)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    csr.snapshot_path = os.path.abspath(path)
    return path


def _read_header(buffer: Any, total_size: int, path: Path) -> Tuple[Dict[str, Any], int]:
    """Parse and validate the prefix + JSON header; return (header, data_start)."""
    if total_size < _PREFIX.size:
        raise SnapshotError(f"{path}: truncated snapshot ({total_size} bytes, no header)")
    magic, version, header_len, header_crc = _PREFIX.unpack_from(buffer)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a repro CSR snapshot (bad magic {magic!r})")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION}); snapshots are "
            "re-creatable — re-run `python -m repro snapshot`"
        )
    if total_size < _PREFIX.size + header_len:
        raise SnapshotError(f"{path}: truncated snapshot (incomplete header)")
    header_blob = bytes(buffer[_PREFIX.size : _PREFIX.size + header_len])
    if zlib.crc32(header_blob) != header_crc:
        raise SnapshotError(f"{path}: corrupt snapshot header (checksum mismatch)")
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(f"{path}: corrupt snapshot header ({error})") from None
    if header.get("byteorder") != sys.byteorder:
        raise SnapshotError(
            f"{path}: snapshot written on a {header.get('byteorder')}-endian machine "
            f"cannot be mapped on this {sys.byteorder}-endian one"
        )
    data_start = _align8(_PREFIX.size + header_len)
    if not isinstance(header.get("data_bytes"), int) or total_size < data_start + header["data_bytes"]:
        raise SnapshotError(
            f"{path}: truncated snapshot (expected {data_start + header.get('data_bytes', 0)} "
            f"bytes, file has {total_size})"
        )
    return header, data_start


def _validate_columns(header: Dict[str, Any], columns: Dict[str, Any], path: Path) -> None:
    """Cross-check column lengths against the recorded graph shape (O(1))."""
    num_nodes = header["num_nodes"]
    num_edges = header["num_edges"]
    missing = [name for name, _ in _COLUMN_SPECS if name not in columns]
    if missing:
        raise SnapshotError(f"{path}: corrupt snapshot (missing column {missing[0]!r})")
    offsets = columns["_offsets"]
    if len(offsets) != num_nodes + 1:
        raise SnapshotError(
            f"{path}: corrupt snapshot (offsets column has {len(offsets)} entries "
            f"for {num_nodes} nodes)"
        )
    adjacency_len = offsets[num_nodes]
    expected = {
        "_adj_edge": adjacency_len,
        "_adj_other": adjacency_len,
        "_adj_out": adjacency_len,
        "_weights": num_edges,
        "_edge_source": num_edges,
        "_edge_target": num_edges,
        "_edge_label_ids": num_edges,
        "node_label_offsets": num_nodes + 1,
        "node_typeset_ids": num_nodes,
        "label_index": num_edges,
    }
    for name, length in expected.items():
        if len(columns[name]) != length:
            raise SnapshotError(
                f"{path}: corrupt snapshot (column {name} has {len(columns[name])} "
                f"entries, expected {length})"
            )
    blob_end = columns["node_label_offsets"][num_nodes]
    if blob_end != len(columns["node_label_blob"]):
        raise SnapshotError(
            f"{path}: corrupt snapshot (last label offset {blob_end}, "
            f"label blob has {len(columns['node_label_blob'])} bytes)"
        )


def _split_groups(column: Any, groups: Any, name: str, path: Path) -> Dict[str, Any]:
    """``{key: slice of the grouped id column}``, in the stored key order."""
    index: Dict[str, Any] = {}
    start = 0
    for key, count in groups:
        if not isinstance(count, int) or count < 0:
            raise SnapshotError(f"{path}: corrupt snapshot ({name}: bad group size {count!r})")
        index[key] = column[start : start + count]
        start += count
    if start != len(column):
        raise SnapshotError(
            f"{path}: corrupt snapshot ({name}: groups span {start} ids, "
            f"column has {len(column)})"
        )
    return index


class _LazySequence:
    """Read-only id-indexed sequence decoding (and caching) items on demand."""

    __slots__ = ("_length", "_cache")

    def __init__(self, length: int):
        self._length = length
        self._cache: Dict[int, Any] = {}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> Any:
        item = self._cache.get(index)
        if item is None:
            if not 0 <= index < self._length:
                raise IndexError(index)
            item = self._cache[index] = self._decode(index)
        return item

    def __iter__(self) -> Iterator[Any]:
        return map(self.__getitem__, range(self._length))

    def _decode(self, index: int) -> Any:
        raise NotImplementedError


class _LazyNodes(_LazySequence):
    """The nodes of a loaded snapshot, decoded from its metadata columns."""

    __slots__ = ("_blob", "_offsets", "_typeset_ids", "_typesets", "_props", "_where")

    def __init__(self, columns: Dict[str, Any], typesets: List[frozenset], props: Dict[int, Any], where: Path):
        super().__init__(len(columns["node_typeset_ids"]))
        self._blob = columns["node_label_blob"]
        self._offsets = columns["node_label_offsets"]
        self._typeset_ids = columns["node_typeset_ids"]
        self._typesets = typesets
        self._props = props
        self._where = where

    def _label(self, node_id: int) -> str:
        start, end = self._offsets[node_id], self._offsets[node_id + 1]
        if not 0 <= start <= end <= len(self._blob):
            raise SnapshotError(
                f"{self._where}: corrupt snapshot (label of node {node_id} spans "
                f"[{start}, {end}) of a {len(self._blob)}-byte blob)"
            )
        try:
            return str(self._blob[start:end], "utf-8", "surrogatepass")
        except UnicodeDecodeError as error:
            raise SnapshotError(
                f"{self._where}: corrupt snapshot (label of node {node_id}: {error})"
            ) from None

    def labels(self) -> Iterator[str]:
        """Every node label in id order, without building a ``Node``."""
        return map(self._label, range(self._length))

    def _decode(self, node_id: int) -> Node:
        typeset_id = self._typeset_ids[node_id]
        if not 0 <= typeset_id < len(self._typesets):
            raise SnapshotError(
                f"{self._where}: corrupt snapshot (node {node_id} has type-set id "
                f"{typeset_id}, table has {len(self._typesets)} entries)"
            )
        return Node(
            node_id, self._label(node_id), self._typesets[typeset_id], self._props.get(node_id)
        )


class _LazyEdges(_LazySequence):
    """The edges of a loaded snapshot, decoded from its per-edge columns."""

    __slots__ = ("_sources", "_targets", "_weights", "_label_ids", "_label_names", "_props", "_where")

    def __init__(self, columns: Dict[str, Any], label_names: List[str], props: Dict[int, Any], where: Path):
        super().__init__(len(columns["_edge_label_ids"]))
        self._sources = columns["_edge_source"]
        self._targets = columns["_edge_target"]
        self._weights = columns["_weights"]
        self._label_ids = columns["_edge_label_ids"]
        self._label_names = label_names
        self._props = props
        self._where = where

    def _decode(self, edge_id: int) -> Edge:
        label_id = self._label_ids[edge_id]
        if not 0 <= label_id < len(self._label_names):
            raise SnapshotError(
                f"{self._where}: corrupt snapshot (edge {edge_id} has label id "
                f"{label_id}, table has {len(self._label_names)} entries)"
            )
        return Edge(
            edge_id,
            self._sources[edge_id],
            self._targets[edge_id],
            self._label_names[label_id],
            self._weights[edge_id],
            self._props.get(edge_id),
        )


def read_snapshot_header(path: PathLike) -> Dict[str, Any]:
    """Parse and validate only the prefix + header of a snapshot file.

    O(header) — the payload is not read.  Raises :class:`SnapshotError`
    on the same up-front problems :func:`load_snapshot` would.
    """
    path = Path(path)
    total_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise SnapshotError(f"{path}: truncated snapshot ({total_size} bytes, no header)")
        header_len = _PREFIX.unpack(prefix)[2]
        buffer = prefix + handle.read(header_len)
    header, _ = _read_header(buffer, total_size, path)
    return header


def load_snapshot(path: PathLike, use_mmap: bool = True, verify_payload: bool = False) -> CSRGraph:
    """Load a snapshot written by :func:`save_snapshot`.

    With ``use_mmap=True`` (default) every column is a ``memoryview`` cast
    over a read-only shared mapping of the file — pages are demand-faulted,
    and every process mapping the same file shares one physical copy.  The
    load does no per-node or per-edge work: it checks the header, the
    column shapes and the metadata blob (see the module docstring), and
    ``Node`` / ``Edge`` objects are decoded from the columns as they are
    asked for.  The mapping lives as long as the returned graph.
    ``use_mmap=False`` copies the columns into plain ``array`` objects
    instead (no file dependence after the call).

    The payload CRC is checked whenever the bytes are all read anyway
    (``use_mmap=False``) or when ``verify_payload=True`` forces it; a
    plain mmap load skips it so the untouched column pages stay unread —
    see the module docstring for the integrity contract.
    """
    # Test-only hook, zero-cost without a plan: a fault plan can only be
    # active once something has imported repro.faults to install it.
    faults = sys.modules.get("repro.faults")
    if faults is not None and faults.active_plan() is not None:
        path = faults.corrupted_path(path)
    path = Path(path)
    columns: Dict[str, Any] = {}
    mmap_obj = None
    if use_mmap:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size:
                mmap_obj = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        buffer: Any = mmap_obj if mmap_obj is not None else b""
    else:
        buffer = path.read_bytes()
    view = memoryview(buffer)
    try:
        header, data_start = _read_header(buffer, len(buffer), path)
        data_bytes = header["data_bytes"]
        if (verify_payload or not use_mmap) and (
            zlib.crc32(view[data_start : data_start + data_bytes]) != header.get("payload_crc32")
        ):
            raise SnapshotError(f"{path}: corrupt snapshot payload (checksum mismatch)")

        def section(name: str, offset: int, nbytes: int) -> memoryview:
            if not 0 <= offset <= offset + nbytes <= data_bytes:
                raise SnapshotError(f"{path}: corrupt snapshot ({name} out of bounds)")
            return view[data_start + offset : data_start + offset + nbytes]

        typecodes = dict(_COLUMN_SPECS)
        try:
            for name, typecode, offset, nbytes in header["columns"]:
                if typecodes.get(name) != typecode or nbytes % _ITEMSIZE[typecode]:
                    raise SnapshotError(
                        f"{path}: corrupt snapshot (column {name}: typecode {typecode!r}, "
                        f"{nbytes} bytes)"
                    )
                raw = section(f"column {name}", offset, nbytes)
                columns[name] = raw.cast(typecode) if use_mmap else column_from_bytes(typecode, raw)
            meta_offset, meta_len, meta_crc = header["meta"]
            meta_raw = bytes(section("metadata", meta_offset, meta_len))
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(f"{path}: corrupt snapshot header ({error!r})") from None
        _validate_columns(header, columns, path)
        if zlib.crc32(meta_raw) != meta_crc:
            raise SnapshotError(f"{path}: corrupt snapshot metadata (checksum mismatch)")
        try:
            meta = pickle.loads(meta_raw)
            nodes = _LazyNodes(
                columns, [frozenset(types) for types in meta["typesets"]], meta["node_props"], path
            )
            label_names = list(meta["label_names"])
            edges = _LazyEdges(columns, label_names, meta["edge_props"], path)
            nodes_by_type = _split_groups(columns["type_index"], meta["type_groups"], "type_index", path)
            edges_by_label = _split_groups(columns["label_index"], meta["label_groups"], "label_index", path)
            name, base_generation = meta["name"], meta["source_generation"]
        except SnapshotError:
            raise
        except Exception as error:  # noqa: BLE001 - any unpickling failure is corruption
            raise SnapshotError(f"{path}: corrupt snapshot metadata ({error!r})") from None
    except Exception:
        # The graph never materialized; drop our handle (any exported
        # column views die with the exception).
        columns.clear()
        view.release()
        if mmap_obj is not None:
            try:
                mmap_obj.close()
            except (BufferError, ValueError):
                pass
        raise

    csr = CSRGraph._from_columns(
        name=name,
        nodes=nodes,
        edges=edges,
        columns=columns,
        label_names=label_names,
        nodes_by_type=nodes_by_type,
        edges_by_label=edges_by_label,
        mmap_obj=mmap_obj,
        snapshot_path=os.path.abspath(path),
    )
    # MVCC: a loaded snapshot can serve as the base of a delta overlay when
    # the writer recorded its source generation.  source_generation stays
    # None (the freeze-memo key — a loaded CSR has no live source graph).
    csr.base_generation = base_generation
    return csr


# ----------------------------------------------------------------------
# dispatcher helper: snapshot-on-demand with eager + exit-time cleanup
# ----------------------------------------------------------------------
_AUTO_SNAPSHOTS: set = set()

#: Auto-snapshot files are named ``repro-csr-<pid>-<random>.snapshot`` so a
#: *different* process can tell whether the owner is still alive and reap
#: the strays a killed owner left behind (atexit never ran there).
_AUTO_PREFIX_RE = re.compile(r"^repro-csr-(\d+)-.*\.snapshot$")


def _cleanup_auto_snapshots() -> None:  # pragma: no cover - exit hook
    for auto_path in list(_AUTO_SNAPSHOTS):
        try:
            os.unlink(auto_path)
        except OSError:
            pass
    _AUTO_SNAPSHOTS.clear()


atexit.register(_cleanup_auto_snapshots)


def release_auto_snapshot(path: Optional[str]) -> bool:
    """Eagerly delete an auto-snapshot file this process owns.

    The ``atexit`` hook only fires on a clean interpreter exit — a pool
    that closes mid-run must unlink its snapshot *now*, or a long-lived
    server leaks one temp file per pool generation.  Only paths created by
    :func:`ensure_snapshot` are touched (an explicitly saved snapshot is
    the user's file); unlinking is safe while workers still map the file —
    POSIX keeps the mapping alive until the last handle drops.  Returns
    whether a file was released.
    """
    if path is None or path not in _AUTO_SNAPSHOTS:
        return False
    _AUTO_SNAPSHOTS.discard(path)
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (owned by someone else) — not ours to judge
    return True


def _reap_stale_snapshots(directory: Optional[PathLike] = None) -> int:
    """Delete auto-snapshot files whose owning process is gone.

    A worker killed with SIGKILL, or a parent that crashed before its
    ``atexit`` hook, strands its ``repro-csr-<pid>-*.snapshot`` files in
    tmp forever.  Every :func:`ensure_snapshot` call sweeps the temp
    directory for such orphans: a file whose embedded pid no longer names
    a live process is unlinked (our own pid is skipped — its files are
    live by definition).  Returns the number of files reaped; all I/O
    errors are swallowed (reaping is best-effort hygiene, never a reason
    to fail a dispatch).
    """
    directory = Path(directory) if directory is not None else Path(tempfile.gettempdir())
    reaped = 0
    try:
        entries = list(os.scandir(directory))
    except OSError:
        return 0
    own_pid = os.getpid()
    for entry in entries:
        match = _AUTO_PREFIX_RE.match(entry.name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(entry.path)
            reaped += 1
        except OSError:
            pass
    return reaped


def _snapshot_matches(csr: CSRGraph, path: str) -> bool:
    """Cheap sanity check before reusing a memoized snapshot file.

    The file may have been deleted, overwritten with a *different* graph's
    snapshot, or replaced with junk since the path was memoized — reusing
    it blindly would hand worker processes the wrong graph.  Validating
    the header (magic, version, CRC) and the node/edge counts is O(header)
    and catches every such swap short of a same-shape graph replacement.
    """
    try:
        header = read_snapshot_header(path)
    except (SnapshotError, OSError):
        return False
    return header["num_nodes"] == csr.num_nodes and header["num_edges"] == csr.num_edges


def ensure_snapshot(graph: Any) -> Tuple[CSRGraph, str]:
    """Return ``(frozen graph, snapshot file path)`` for any graph.

    A graph that already has a snapshot file (loaded from one, or saved
    earlier) reuses it after an O(header) validation
    (:func:`_snapshot_matches`); otherwise the frozen graph is serialized
    once to a pid-tagged temporary file — released eagerly by the owning
    pool (:func:`release_auto_snapshot`), at interpreter exit otherwise,
    and reaped by *any* later process when the owner died without cleaning
    up (:func:`_reap_stale_snapshots`).  The path is memoized on the
    snapshot object, so repeated process-pool dispatches over one graph
    serialize at most once.
    """
    csr = _freeze(graph)
    existing = csr.snapshot_path
    if existing is not None and _snapshot_matches(csr, existing):
        return csr, existing
    _reap_stale_snapshots()  # hygiene: collect orphans of dead processes
    fd, tmp_path = tempfile.mkstemp(prefix=f"repro-csr-{os.getpid()}-", suffix=".snapshot")
    os.close(fd)
    try:
        save_snapshot(csr, tmp_path)
    except BaseException:
        # Serialization failed (e.g. unpicklable node properties): don't
        # leak the temp file — the caller degrades and may retry on every
        # dispatch.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _AUTO_SNAPSHOTS.add(tmp_path)
    return csr, tmp_path
