"""Binary CSR snapshots: one file, many processes, zero-copy columns.

The process-pool dispatcher (:mod:`repro.query.parallel`) needs every
worker to see the *same* graph without paying a per-worker copy of the
adjacency.  This module gives :class:`~repro.graph.backend.CSRGraph` a
binary on-disk form: the flat numeric columns (offsets, adjacency
edge/other/out, weights, endpoints, edge-label ids) are written verbatim,
8-byte aligned, and loaded back as ``mmap``-backed ``memoryview`` casts —
so N workers mapping one snapshot share one physical copy of the topology
(the kernel page cache), while node/edge *metadata* (labels, types,
properties, label indexes) rides along as a pickled blob materialized per
process.

File layout (version 1)::

    bytes 0-7    magic  b"REPROSNP"
    bytes 8-11   format version  (uint32, little-endian)
    bytes 12-15  header length H (uint32, little-endian)
    bytes 16-19  CRC-32 of the header JSON (uint32, little-endian)
    bytes 20-    header: UTF-8 JSON describing the payload sections
    data_start = 20 + H rounded up to the next multiple of 8
    data_start- column payloads (each 8-byte aligned, offsets relative to
                 data_start) followed by the pickled metadata blob

The header records the byte order, node/edge counts, the
``(name, typecode, offset, nbytes)`` of every section, the total payload
size, and a CRC-32 of the payload region.  Bad magic, unsupported
versions, endianness mismatches, truncation, and header corruption (the
header CRC is always checked) are detected up front and raised as
:class:`~repro.errors.SnapshotError`.  Payload integrity is checked
whenever the file is fully read — ``use_mmap=False``, or
``verify_payload=True`` — but NOT on a plain mmap load: checksumming
would fault in every column page the mapping leaves untouched, so an
mmap load trusts the payload bytes the way it trusts any mapped file.

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
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import GraphError, SnapshotError
from repro.graph.backend import CSRGraph
from repro.graph.graph import Edge, Node

PathLike = Union[str, Path]

#: First 8 bytes of every snapshot file.
SNAPSHOT_MAGIC = b"REPROSNP"
#: Format version this build writes and the only one it reads.
SNAPSHOT_VERSION = 1

_PREFIX = struct.Struct("<8sIII")  # magic, version, header length, header CRC-32


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


def save_snapshot(graph: Any, path: PathLike) -> Path:
    """Serialize ``graph`` (frozen on the fly if needed) to ``path``.

    The written file is self-describing (see the module docstring); on
    success the snapshot's :attr:`~repro.graph.backend.CSRGraph.snapshot_path`
    is set to ``path`` so process-pool dispatches over the same graph
    reuse the file instead of re-serializing.
    """
    csr = _freeze(graph)
    sections: List[Tuple[str, str, bytes]] = [
        (attr, typecode, csr.__dict__[attr].tobytes()) for attr, typecode in csr._COLUMN_SPECS
    ]
    meta = {
        "name": csr.name,
        "nodes": [(n.label, tuple(sorted(n.types)), n.props or None) for n in csr._nodes],
        "edges": [(e.label, e.props or None) for e in csr._edges],
        "label_names": list(csr._label_names),
        "nodes_by_label": dict(csr._nodes_by_label),
        "nodes_by_type": dict(csr._nodes_by_type),
        "edges_by_label": {label: ids.tolist() for label, ids in csr._edges_by_label.items()},
        # MVCC: the source generation this snapshot can serve as a delta
        # base for (None when the CSR has no live lineage, e.g. round-
        # tripped through pickle).  Older files simply lack the key.
        "source_generation": getattr(csr, "base_generation", csr.source_generation),
    }
    meta_blob = pickle.dumps(meta, protocol=4)

    payload = bytearray()
    columns = []
    for attr, typecode, raw in sections:
        payload.extend(bytes(_align8(len(payload)) - len(payload)))  # alignment padding
        columns.append([attr, typecode, len(payload), len(raw)])
        payload.extend(raw)
    payload.extend(bytes(_align8(len(payload)) - len(payload)))
    meta_offset = len(payload)
    payload.extend(meta_blob)
    header = {
        "byteorder": sys.byteorder,
        "num_nodes": csr.num_nodes,
        "num_edges": csr.num_edges,
        "columns": columns,
        "meta": [meta_offset, len(meta_blob)],
        "data_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = _align8(_PREFIX.size + len(header_blob))

    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(
            _PREFIX.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(header_blob), zlib.crc32(header_blob)
            )
        )
        handle.write(header_blob)
        handle.write(bytes(data_start - _PREFIX.size - len(header_blob)))
        handle.write(payload)
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
            f"(this build reads version {SNAPSHOT_VERSION})"
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


_ITEMSIZE = {"q": 8, "d": 8, "b": 1}


def _validate_columns(header: Dict[str, Any], columns: Dict[str, Any], path: Path) -> None:
    """Cross-check column lengths against the recorded graph shape."""
    num_nodes = header["num_nodes"]
    num_edges = header["num_edges"]
    try:
        offsets = columns["_offsets"]
        if len(offsets) != num_nodes + 1:
            raise SnapshotError(
                f"{path}: corrupt snapshot (offsets column has {len(offsets)} entries "
                f"for {num_nodes} nodes)"
            )
        adjacency_len = offsets[num_nodes] if num_nodes else 0
        expected = {
            "_adj_edge": adjacency_len,
            "_adj_other": adjacency_len,
            "_adj_out": adjacency_len,
            "_weights": num_edges,
            "_edge_source": num_edges,
            "_edge_target": num_edges,
            "_edge_label_ids": num_edges,
        }
        for name, length in expected.items():
            if len(columns[name]) != length:
                raise SnapshotError(
                    f"{path}: corrupt snapshot (column {name} has {len(columns[name])} "
                    f"entries, expected {length})"
                )
    except KeyError as error:
        raise SnapshotError(f"{path}: corrupt snapshot (missing column {error})") from None


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

    With ``use_mmap=True`` (default) the numeric columns are
    ``memoryview`` casts over a read-only shared mapping of the file — the
    adjacency pages are demand-faulted, and every process mapping the same
    file shares one physical copy.  Only the *columns* are lazy: the load
    unpickles the metadata blob and materialises one ``Node`` and one
    ``Edge`` object per graph element (reading the endpoint and weight
    columns once), so it is O(nodes + edges) in time and private memory —
    measured 1.9 s at 10^5 nodes / 2x10^5 edges.  The mapping lives as long
    as the returned graph.  ``use_mmap=False`` copies the columns into
    plain ``array`` objects instead (no file dependence after the call).

    The payload CRC is checked whenever the bytes are all read anyway
    (``use_mmap=False``) or when ``verify_payload=True`` forces it; a
    plain mmap load skips it so the untouched column pages stay unread —
    see the module docstring for the integrity contract.
    """
    from repro import faults  # local: test-only hook, zero-cost without a plan

    if faults.active_plan() is not None:
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
    try:
        header, data_start = _read_header(buffer, len(buffer), path)
        if (verify_payload or not use_mmap) and "payload_crc32" in header:
            payload = bytes(buffer[data_start : data_start + header["data_bytes"]])
            if zlib.crc32(payload) != header["payload_crc32"]:
                raise SnapshotError(f"{path}: corrupt snapshot payload (checksum mismatch)")
        view = memoryview(buffer) if use_mmap else None
        for name, typecode, rel_offset, nbytes in header["columns"]:
            if typecode not in _ITEMSIZE or nbytes % _ITEMSIZE[typecode]:
                raise SnapshotError(f"{path}: corrupt snapshot (column {name} misaligned)")
            start = data_start + rel_offset
            if use_mmap:
                columns[name] = view[start : start + nbytes].cast(typecode)
            else:
                column = array(typecode)
                column.frombytes(buffer[start : start + nbytes])
                columns[name] = column
        _validate_columns(header, columns, path)
        meta_offset, meta_len = header["meta"]
        meta_raw = bytes(buffer[data_start + meta_offset : data_start + meta_offset + meta_len])
        try:
            meta = pickle.loads(meta_raw)
        except Exception as error:  # noqa: BLE001 - any unpickling failure is corruption
            raise SnapshotError(f"{path}: corrupt snapshot metadata ({error})") from None
        if len(meta["nodes"]) != header["num_nodes"] or len(meta["edges"]) != header["num_edges"]:
            raise SnapshotError(f"{path}: corrupt snapshot (metadata/column count mismatch)")
    except Exception:
        if mmap_obj is not None:
            # The graph never materialized; drop our handle (any exported
            # column views die with the exception).
            columns.clear()
            try:
                mmap_obj.close()
            except (BufferError, ValueError):
                pass
        raise

    nodes = [
        Node(node_id, label, types, props)
        for node_id, (label, types, props) in enumerate(meta["nodes"])
    ]
    sources = columns["_edge_source"]
    targets = columns["_edge_target"]
    weights = columns["_weights"]
    edges = [
        Edge(edge_id, sources[edge_id], targets[edge_id], label, weights[edge_id], props)
        for edge_id, (label, props) in enumerate(meta["edges"])
    ]
    csr = CSRGraph._from_columns(
        name=meta["name"],
        nodes=nodes,
        edges=edges,
        columns=columns,
        label_names=list(meta["label_names"]),
        nodes_by_label={label: tuple(ids) for label, ids in meta["nodes_by_label"].items()},
        nodes_by_type={label: tuple(ids) for label, ids in meta["nodes_by_type"].items()},
        edges_by_label={label: array("q", ids) for label, ids in meta["edges_by_label"].items()},
        mmap_obj=mmap_obj,
        snapshot_path=os.path.abspath(path),
    )
    # MVCC: a loaded snapshot can serve as the base of a delta overlay when
    # the writer recorded its source generation.  source_generation stays
    # None (the freeze-memo key — a loaded CSR has no live source graph).
    csr.base_generation = meta.get("source_generation")
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
