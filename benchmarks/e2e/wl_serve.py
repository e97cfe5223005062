"""``serve_read`` and ``serve_ingest`` — a prewarmed ``QueryServer`` under a closed loop.

Why ``serve_read`` exists: it is the only place ``repro.query.parallel``,
``repro.query.pool`` and ``repro.serve.server`` (pickle, queue, IPC, memo
filing, admission) sit on the blocking path of every operation.  Requests
are cheap (two bounded CONNECTs between entities one hop apart), so the
fixed per-request cost of the serving stack is a large share of latency.

Why ``serve_ingest`` exists: the same server, seed and read stream, plus
writes — every fifth operation is an ``IngestRequest`` (4 typed nodes, 32
edges, 4 weight updates), so the default ``compaction_threshold=256`` is
crossed several times per run.  The same layers are used differently
(delta shipping, MVCC view pinning, compaction stalls, a memo flushed at
every generation), so a read-side gain paid for by writes — or the
reverse — shows as the two workloads diverging.

**Closed loop**, ``min(2, nproc)`` client threads: callers of the
synchronous ``QueryServer.handle`` wait for their reply before sending
the next request, and admission control rejects instead of queueing, so
an open loop would measure rejections.  Workers never exceed ``nproc``.

The data set (``yago_like(scale=0.25)``) and the catalogue of fresh
requests are fixed.  ``--seed`` draws which operations repeat a recent
request (30 %) and which request they repeat; 70 % of the reads have
never been seen before.  Every CONNECT is ``MAX``-bounded **without
LIMIT** (LIMIT-truncated result sets are never memoised, so repeats would
never hit the memo) and has no timeout, so rows do not depend on the wall
clock.  Both bystanders of this workload are honest about it: BGP
evaluation and the relational join do next to nothing here.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ctp import SearchConfig, SearchContext, validate_result
from repro.query import evaluate_query
from repro.serve import IngestRequest, QueryRequest, QueryServer
from repro.workloads import sample_ctp_workload, yago_like

from harness import (
    REFERENCE_SECONDS,
    Gauge,
    NullRecorder,
    Recorder,
    RunParams,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    repeated_setup,
    rows_digest,
)
from layers import layer_metrics
from staged import close_totals, new_totals, staged_query

CATALOGUE_SEED = 11
SCALE, SMOKE_SCALE = 0.25, 0.05
#: Fresh requests available to one run (a run serves ~500 of them here).
CATALOGUE, SMOKE_CATALOGUE = 2400, 80
WARM_UP, SMOKE_WARM_UP = 40, 6
REPEAT_SHARE = 0.3
#: A repeat targets one of this many most recent fresh requests: two memo
#: entries each, inside the 64-entry ``ctp_cache`` of the shared context.
RECENT = 16
WRITE_EVERY = 5
LIMIT_MS = 150.0
SEGMENTS = 5
SAMPLE_SHARE = 0.1
STAGED_SAMPLE = 24
NODE_TYPES = ("person", "organization", "place", "work", "event", "category")


def request_text(pair_a: Tuple[int, int], pair_b: Tuple[int, int]) -> str:
    (a, b), (c, d) = pair_a, pair_b
    return (
        "SELECT ?w0 ?w1 WHERE { "
        f'CONNECT("ent_{a}", "ent_{b}") AS ?w0 MAX 2 '
        f'CONNECT("ent_{c}", "ent_{d}") AS ?w1 MAX 2 }}'
    )


def make_stream(seed: int, catalogue: int, ingest: bool) -> List[Tuple[str, int]]:
    """The operation sequence: ("read", catalogue index) or ("write", -1).

    The read sequence is the same with and without writes (writes draw
    nothing from the generator), which is what lets ``serve_read`` and
    ``serve_ingest`` be compared request for request.
    """
    rng = random.Random(seed)
    ops: List[Tuple[str, int]] = []
    recent: deque = deque(maxlen=RECENT)
    fresh = 0
    while fresh < catalogue:
        if ingest and len(ops) % WRITE_EVERY == WRITE_EVERY - 1:
            ops.append(("write", -1))
        elif recent and rng.random() < REPEAT_SHARE:
            ops.append(("read", rng.choice(recent)))
        else:
            ops.append(("read", fresh))
            recent.append(fresh)
            fresh += 1
    return ops


def ingest_batch(index: int, first_new: int, base_nodes: int, base_edges: int,
                 labels: Sequence[str]) -> IngestRequest:
    """Write batch ``index``: content depends on nothing but the index."""
    rng = random.Random(CATALOGUE_SEED * 1_000_003 + index)
    nodes = tuple((f"new_{index}_{j}", rng.choice(NODE_TYPES)) for j in range(4))
    edges = []
    for j in range(32):
        source = first_new + j % 4 if j < 16 else rng.randrange(base_nodes)
        target = rng.randrange(base_nodes)
        edges.append((source, target, rng.choice(labels), 1.0))
    weights = tuple((rng.randrange(base_edges), round(rng.uniform(0.5, 2.0), 3)) for _ in range(4))
    return IngestRequest(nodes=nodes, edges=tuple(edges), weights=weights, tag=str(index))


class CompactionGate:
    """Readers share it; the client about to trigger a compaction owns it.

    At this commit a compaction that lands while *another* request is
    between resolving its delta and running on the workers makes that
    request fail ("delta was captured against a base of ..."): the pool
    respawns its workers onto the new base under the other request's
    feet.  A benchmark workload may not contain failing operations, so
    the client whose write pushes the delta over the compaction threshold
    waits for the other client's read in flight, then performs that write
    and its next reads alone until the delta is folded in.  Reads and
    ordinary writes still overlap freely.  (The race is recorded in
    README.md; once it is fixed this gate can go.)
    """

    def __init__(self) -> None:
        self._changed = threading.Condition()
        self._readers = 0
        self._owned = False

    def enter_shared(self) -> None:
        with self._changed:
            while self._owned:
                self._changed.wait()
            self._readers += 1

    def leave_shared(self) -> None:
        with self._changed:
            self._readers -= 1
            self._changed.notify_all()

    def enter_exclusive(self) -> None:
        with self._changed:
            while self._owned:
                self._changed.wait()
            self._owned = True
            while self._readers:
                self._changed.wait()

    def leave_exclusive(self) -> None:
        with self._changed:
            self._owned = False
            self._changed.notify_all()


@dataclass
class Record:
    """One operation as a client saw it."""

    kind: str
    index: int  # catalogue index of a read, batch index of a write
    client: int
    start: float
    end: float
    response: Any


@dataclass
class ServeState:
    server: QueryServer
    graph: Any
    scale: float
    texts: List[str]
    labels: List[str]
    base_nodes: int
    base_edges: int
    workers: int
    clients: int
    layer: Dict[str, float] = field(default_factory=dict)
    #: Shared by the client threads: next stream position, next batch index.
    lock: threading.Lock = field(default_factory=threading.Lock)
    write_lock: threading.Lock = field(default_factory=threading.Lock)
    gate: CompactionGate = field(default_factory=CompactionGate)
    batches: List[Tuple[int, IngestRequest]] = field(default_factory=list)


def build(params: RunParams) -> ServeState:
    stages: Dict[str, float] = {}
    started = time.perf_counter()
    scale = SMOKE_SCALE if params.smoke else SCALE
    graph = yago_like(scale=scale).graph
    stages["graph.build_s"] = time.perf_counter() - started
    stages["graph.edges_per_s"] = graph.num_edges / stages["graph.build_s"]
    catalogue = SMOKE_CATALOGUE if params.smoke else CATALOGUE
    pairs = sample_ctp_workload(
        graph, m_distribution={2: 2 * catalogue}, seed=CATALOGUE_SEED,
        max_radius=1, seeds_per_set=(1, 1),
    )
    flat = [(a[0], b[0]) for a, b in pairs]
    texts = [request_text(flat[2 * i], flat[2 * i + 1]) for i in range(catalogue)]
    workers = min(2, params.nproc)
    server = QueryServer(
        graph,
        base_config=SearchConfig(parallelism=workers),
        workers=workers,
        dispatch_mode="process",
    )
    try:
        started = time.perf_counter()
        healthy = server.prewarm()
        stages["pool.prewarm_s"] = time.perf_counter() - started
        if not healthy:
            raise RuntimeError("worker pool is not healthy after prewarm()")
        state = ServeState(
            server=server, graph=graph, scale=scale, texts=texts, labels=graph.edge_labels(),
            base_nodes=graph.num_nodes, base_edges=graph.num_edges,
            workers=workers, clients=min(2, params.nproc), layer=stages,
        )
        # The discarded warm-up: the tail of the catalogue, never measured.
        warm = SMOKE_WARM_UP if params.smoke else WARM_UP
        drive(state, [("read", catalogue - 1 - i) for i in range(warm)], None, None)
    except BaseException:
        server.close()
        raise
    return state


def teardown(state: ServeState) -> None:
    state.server.close()


def drive(
    state: ServeState,
    stream: Sequence[Tuple[str, int]],
    seconds: Optional[float],
    recorder: Optional[Recorder],
) -> Tuple[List[Record], float, float]:
    """Closed loop over ``stream``; returns (records, start, end).

    Each client thread takes the next operation only after its previous
    one was answered.  No operation starts after ``seconds`` (``None``:
    run the stream out).  Writes are serialised on the benchmark side so
    that batch ``k`` is always the ``k``-th batch applied and the ids of
    its new nodes are known when it is built.
    """
    server = state.server
    recorder = recorder or NullRecorder()
    position = 0
    records: List[List[Record]] = [[] for _ in range(state.clients)]
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def take() -> Optional[Tuple[str, int]]:
        nonlocal position
        with state.lock:
            if position >= len(stream):
                return None
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            op = stream[position]
            position += 1
            return op

    threshold = server.compaction_threshold

    def client(number: int) -> None:
        mine = records[number]
        alone = False  # this client owns the compaction gate
        try:
            while True:
                op = take()
                if op is None:
                    return
                kind, index = op
                if kind == "read":
                    request = QueryRequest(query=state.texts[index], tag=str(index))
                    # The clock starts before the gate: a read held back by
                    # the other client's compaction waited for it.
                    begin = time.perf_counter()
                    if not alone:
                        state.gate.enter_shared()
                    try:
                        with recorder.span("handle", "server", request=f"r{index}"):
                            response = server.handle(request)
                        end = time.perf_counter()
                    finally:
                        if not alone:
                            state.gate.leave_shared()
                    mine.append(Record(kind, index, number, begin, end, response))
                else:
                    with state.write_lock:
                        index = len(state.batches)
                        batch = ingest_batch(index, state.graph.num_nodes, state.base_nodes,
                                             state.base_edges, state.labels)
                        mutations = len(batch.nodes) + len(batch.edges) + len(batch.weights)
                        if not alone and state.graph.delta_size + mutations > threshold:
                            state.gate.enter_exclusive()
                            alone = True
                        begin = time.perf_counter()
                        with recorder.span("ingest", "delta", request=f"w{index}"):
                            response = server.ingest(batch)
                        end = time.perf_counter()
                        state.batches.append((response.generation, batch))
                    mine.append(Record(kind, index, number, begin, end, response))
                if alone and state.graph.delta_size <= threshold:
                    state.gate.leave_exclusive()
                    alone = False
        finally:
            if alone:
                state.gate.leave_exclusive()

    threads = [threading.Thread(target=client, args=(n,), name=f"e2e-client-{n}")
               for n in range(state.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = sorted((r for mine in records for r in mine), key=lambda r: r.end)
    return merged, started, time.perf_counter()


def read_ok(record: Record) -> bool:
    response = record.response
    return response.ok and not response.stats.deadline_truncated


def check(
    state: ServeState,
    records: Sequence[Record],
    expected: Optional[Dict[str, Any]],
    seed: int,
    problems: List[str],
    pinned: Dict[str, Any],
) -> int:
    """Everything the timed phase did not check; returns the failed count.

    * every response is ``ok`` and not deadline-truncated, every write ok;
    * per-client generations never go backwards;
    * every tree of every row is a minimal tree over its reported seeds;
    * a response equals the pinned expectation for its catalogue entry
      (static graph only — under ingest rows depend on the generation);
    * a repeat equals the first answer to the same request at the same
      generation;
    * a seeded 10 % sample equals a serial ``evaluate_query`` on a replica
      rebuilt to the response's stamped generation.
    """
    failed = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 20:
            problems.append(message)

    last_generation: Dict[int, int] = {}
    seen_trees: set = set()
    first_answer: Dict[Tuple[int, int], str] = {}
    digests: Dict[int, str] = {}
    static = not state.batches
    for position, record in enumerate(records):
        response = record.response
        if record.kind == "write":
            if not response.ok:
                fail(f"write {record.index}: {response.status}: {response.error}")
            continue
        if not read_ok(record):
            fail(f"read {record.index}: status {response.status}: {response.error}")
            continue
        generation = response.stats.generation
        if generation < last_generation.get(record.client, generation):
            fail(f"read {record.index}: generation went backwards on client {record.client}")
            continue
        last_generation[record.client] = generation
        issues: List[str] = []
        for row in response.rows:
            for tree in row:
                if id(tree) in seen_trees or not hasattr(tree, "edges"):
                    continue
                seen_trees.add(id(tree))
                seed_sets = [(node,) for node in tree.seeds]
                issues.extend(validate_result(state.graph, tree, seed_sets))
        digest = rows_digest(response.rows)
        digests[position] = digest
        answer = {"rows": response.total_rows, "digest": digest}
        if static:
            pinned.setdefault(str(record.index), answer)
            want = expected.get(str(record.index)) if expected is not None else None
            if want is not None and want != answer:
                issues.append(f"got {answer}, pinned {want}")
        if first_answer.setdefault((record.index, generation), digest) != digest:
            issues.append("differs from the first answer at the same generation")
        if issues:
            fail(f"read {record.index}: {issues[0]}")

    # Serial re-evaluation of a seeded sample at the stamped generation.
    rng = random.Random(seed)
    sample = [p for p in digests if rng.random() < SAMPLE_SHARE]
    sample.sort(key=lambda p: records[p].response.stats.generation)
    replica = yago_like(scale=state.scale).graph
    applied = 0
    for position in sample:
        record = records[position]
        generation = record.response.stats.generation
        while applied < len(state.batches) and state.batches[applied][0] <= generation:
            batch = state.batches[applied][1]
            for label, node_type in batch.nodes:
                replica.add_node(label, types=(node_type,))
            for source, target, label, weight in batch.edges:
                replica.add_edge(source, target, label, weight)
            for edge_id, weight in batch.weights:
                replica.set_edge_weight(edge_id, weight)
            applied += 1
        if replica.generation != generation:
            fail(f"read {record.index}: generation {generation} is not a batch boundary "
                 f"(replica at {replica.generation})")
            continue
        serial = evaluate_query(replica, state.texts[record.index])
        if rows_digest(serial.rows) != digests[position]:
            fail(f"read {record.index}: differs from serial evaluation at generation {generation}")
    return failed


def record_ok(record: Record) -> bool:
    return read_ok(record) if record.kind == "read" else record.response.ok


def measure(state: ServeState, stream: Sequence[Tuple[str, int]], seconds: float,
            setup_samples: Sequence[float]) -> Tuple[List[Record], Dict[str, float]]:
    """The untraced run: ``SEGMENTS`` consecutive segments of one stream.

    The clients pause at every segment boundary while the calibration
    kernel runs; a segment's times are corrected by a ``harness.Gauge``
    (time stolen during the segment, machine speed at its two
    boundaries).  Throughput is all ok operations over all corrected
    time, not a median of segments: every run serves the same requests
    in the same order, so the total is what repeats, while "the median
    segment" is a different set of requests from run to run.
    """
    gc.collect()
    records: List[Record] = []
    latencies: List[float] = []
    busy = cpu = 0.0
    ok = 0
    burst = 20  # kernel runs per boundary
    gauge = Gauge()
    gauge.sample(burst * REFERENCE_SECONDS / Gauge.SHARE)
    for _ in range(SEGMENTS):
        cpu_started = cpu_seconds()
        gauge.mark()
        segment, started, ended = drive(state, stream[len(records):], seconds / SEGMENTS, None)
        got = gauge.got_share()
        segment_cpu = cpu_seconds() - cpu_started
        gauge.sample(burst * REFERENCE_SECONDS / Gauge.SHARE)
        speed = gauge.speed(last=2 * burst)
        good = [r for r in segment if record_ok(r)]
        records.extend(segment)
        ok += len(good)
        cpu += segment_cpu * speed
        busy += (ended - started) * got * speed
        latencies.extend((r.end - r.start) * 1e3 * got * speed for r in good if r.kind == "read")
    if not latencies:
        return records, {}  # nothing succeeded: reported as failed, not measured
    return records, {
        "setup_s": median(setup_samples),
        "throughput_ops_s": ratio(ok, busy),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "cpu_ms_per_op": ratio(cpu * 1e3, ok),
    }


def layer_totals(state: ServeState, records: Sequence[Record], before: Dict[str, Any],
                 after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer totals from the responses and the server's own counters."""
    reads = [r for r in records if r.kind == "read"]
    writes = [r for r in records if r.kind == "write"]
    good = [r for r in reads if read_ok(r)]
    modes: Dict[str, int] = {}
    for record in good:
        for mode in record.response.stats.dispatch_modes:
            modes[mode] = modes.get(mode, 0) + 1
    latencies = [(r.end - r.start) * 1e3 for r in good]
    pool_before, pool_after = before["pool"], after["pool"]
    totals: Dict[str, Any] = dict(state.layer)
    totals.update({
        "modes": modes,
        "context": after["context"],
        "server.self_ms_per_request": ratio(
            sum((r.end - r.start) - r.response.stats.seconds for r in good) * 1e3, len(good)),
        "server.rejected_share": ratio(after["rejected"] - before["rejected"], len(reads)),
        "server.shed_share": ratio(after["shed"] - before["shed"], len(reads)),
        "server.within_limit_share": ratio(
            sum(1 for latency in latencies if latency <= LIMIT_MS), len(reads)),
        "pool.dispatches_per_request": ratio(
            pool_after["dispatches"] - pool_before["dispatches"], len(good)),
    })
    for counter in ("respawns", "resnapshots", "compactions", "resnapshots_avoided"):
        totals[f"pool.{counter}"] = pool_after[counter] - pool_before[counter]
    if writes:
        write_ms = [(r.end - r.start) * 1e3 for r in writes]
        totals["delta.ingest_ms_per_batch"] = sum(write_ms) / len(write_ms)
        totals["delta.write_latency_p50_ms"] = percentile(write_ms, 50)
        totals["delta.size_at_end"] = after["delta_size"]
        totals["delta.generations_served"] = len({r.response.stats.generation for r in good})
        # Requests that saw the compaction counter move paid for (or
        # waited behind) a compaction: the slowest of them against the median.
        stalled = [
            (r.end - r.start) * 1e3
            for previous, r in zip(good, good[1:])
            if r.response.stats.compactions > previous.response.stats.compactions
        ]
        totals["delta.compact_stall_ms_max"] = max(stalled, default=0.0) - (
            median(latencies) if stalled else 0.0)
    return totals


def staged_sample(state: ServeState, recorder: Recorder, totals: Dict[str, Any],
                  indices: Sequence[int]) -> None:
    """Replay a few requests through ``evaluate_query`` on the server's pool.

    ``QueryResponse`` carries no per-CTP report, so search statistics and
    the dispatch overhead (CTP-stage time minus the slowest search) come
    from this sample: the same pool, the same base config, but a private
    context so that nothing is answered from the memo.
    """
    server = state.server
    view = state.graph.read_view()
    context = SearchContext(thread_safe=True)
    staged = new_totals()
    for index in indices:
        staged_query(recorder, view, state.texts[index], f"s{index}", staged,
                     base_config=server.base_config, context=context, pool=server.pool)
    close_totals(staged)
    staged.pop("modes")  # mode shares come from the real responses
    totals.update(staged)  # "wall" too: time shares are shares of the sample's time


def run(name: str, params: RunParams, expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    ingest = name == "serve_ingest"
    catalogue = SMOKE_CATALOGUE if params.smoke else CATALOGUE
    stream = make_stream(params.seed, catalogue - (SMOKE_WARM_UP if params.smoke else WARM_UP),
                         ingest)
    repeats = 1 if (params.trace or params.smoke) else 3
    state, setup_samples = repeated_setup(lambda: build(params), teardown, repeats)
    problems: List[str] = []
    pinned: Dict[str, Any] = {}
    try:
        server = state.server
        if not params.trace:
            records, metrics = measure(state, stream, params.seconds, setup_samples)
        else:
            # Quarters of the stream: untraced, traced, traced, untraced — the
            # stream warms up as it goes (memo, pools), and the two outer
            # quarters bracket that drift.
            quarter = params.seconds / 4.0
            recorder = Recorder()
            untraced: List[Record] = []
            traced: List[Record] = []
            records = []
            for part in range(4):
                if part == 1:
                    before = server.stats()
                segment, _, _ = drive(state, stream[len(records):], quarter,
                                      recorder if part in (1, 2) else None)
                if part == 2:
                    after = server.stats()
                (traced if part in (1, 2) else untraced).extend(segment)
                records.extend(segment)
            totals = layer_totals(state, traced, before, after)
            staged_sample(state, recorder, totals,
                          [r.index for r in traced if r.kind == "read"][:STAGED_SAMPLE])
            typical = lambda rs: median(  # noqa: E731  (median: compaction stalls land anywhere)
                [r.end - r.start for r in rs if r.kind == "read"] or [0.0])
            totals["trace.overhead_share"] = ratio(
                typical(traced) - typical(untraced), typical(untraced))
            metrics = layer_metrics(totals)
            recorder.write(f"{params.trace_dir}/trace.{name}.jsonl")
        rss = peak_rss_mb()  # while the workers are up, before the checks allocate
        failed = check(state, records, expected, params.seed, problems, pinned)
    finally:
        teardown(state)
    if metrics and not params.trace:
        metrics["peak_rss_mb"] = rss
    return {
        "attempted": len(records),
        "failed": min(failed, len(records)),
        "metrics": metrics,
        "problems": problems,
        "info": {
            "clients": state.clients,
            "workers": state.workers,
            "reads": sum(1 for r in records if r.kind == "read"),
            "writes": sum(1 for r in records if r.kind == "write"),
            "setup_samples_s": [round(s, 4) for s in setup_samples],
            "records": pinned,
        },
    }
