"""Measurement plumbing shared by the e2e workloads.

Everything here observes the program **from outside**: wall clocks around
public calls, ``getrusage``/``/proc`` for CPU and memory, and a span
recorder the traced run wraps around each call into a layer.  Nothing in
this file imports ``repro``; the workload modules do, through public
names only (see README.md, "What the benchmark may import").
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# run parameters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunParams:
    """What one workload subprocess is asked to do."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: Directory (inside the checkout) for snapshot files and the like.
    work_dir: str
    #: Where a traced run writes ``trace.<workload>.jsonl``.
    trace_dir: str
    nproc: int


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact for the sample sizes a run has)."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def quantile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile, for small sets of typical values.

    Nearest rank jumps from one operation to the next when a set has a
    few dozen members; interpolation moves smoothly between them.
    """
    ordered = sorted(samples)
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# CPU and memory, self + child processes
# ----------------------------------------------------------------------
def _live_descendants() -> List[Tuple[int, float]]:
    """(pid, cpu seconds) of every live descendant, read from /proc.

    Worker processes only show up in ``RUSAGE_CHILDREN`` once reaped — and
    workers started through a ``forkserver`` (what the pool uses once the
    parent has threads) are grandchildren that this process never reaps.
    Each entry's CPU includes what that process has itself reaped, so the
    total stays monotone when a pool replaces its workers.
    """
    me = os.getpid()
    parents: Dict[int, int] = {}
    cpu: Dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                data = handle.read()
        except OSError:  # exited between listing and reading
            continue
        # comm may itself contain spaces or parentheses: split after the last ')'
        rest = data[data.rfind(")") + 2 :].split()
        parents[int(entry)] = int(rest[1])
        cpu[int(entry)] = sum(int(ticks) for ticks in rest[11:15]) / _CLK_TCK

    def descends(pid: int) -> bool:
        while pid in parents:
            pid = parents[pid]
            if pid == me:
                return True
        return False

    return [(pid, seconds) for pid, seconds in cpu.items() if descends(pid)]


def cpu_seconds() -> float:
    """User+system CPU of this process and of all its descendants."""
    times = os.times()
    reaped = times.children_user + times.children_system
    return times.user + times.system + reaped + sum(cpu for _, cpu in _live_descendants())


def _status_mb(pid: Any, key: str) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def rss_mb() -> float:
    """Current resident set of this process (MB)."""
    return _status_mb("self", "VmRSS:")


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest descendant.

    Live workers report their own high-water mark; reaped children are
    folded into ``RUSAGE_CHILDREN`` (whose ``ru_maxrss`` is already a
    maximum).  A workload with a pool calls this while the workers are
    still up: those a forkserver started are never reaped by this process.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    live = max((_status_mb(pid, "VmHWM:") for pid, _ in _live_descendants()), default=0.0)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max(reaped, live)


# ----------------------------------------------------------------------
# canonical rows and digests (the correctness oracle's currency)
# ----------------------------------------------------------------------
def canonical_value(value: Any) -> Any:
    """A row cell in order- and representation-independent form.

    Result trees become ``(sorted edges, sorted nodes, seeds, weight,
    score)`` — what ``micro_scale._canonical_rows`` pins, re-implemented
    here because the benchmark may not import ``repro.bench``.
    """
    if hasattr(value, "edges") and hasattr(value, "seeds"):
        return (
            "tree",
            tuple(sorted(value.edges)),
            tuple(sorted(value.nodes)),
            tuple(value.seeds),
            round(value.weight, 9),
            value.score,
        )
    return value


def rows_digest(rows: Iterable[Sequence[Any]]) -> str:
    """sha256 over the canonicalised, sorted rows (first 16 hex digits)."""
    canonical = sorted((tuple(canonical_value(v) for v in row) for row in rows), key=repr)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]


def trees_digest(result_set: Iterable[Any]) -> str:
    return rows_digest((tree,) for tree in result_set)


# ----------------------------------------------------------------------
# spans (traced run only)
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    layer: str
    request: Optional[Any]
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)


class Recorder:
    """In-memory span recorder kept on the benchmark's side of the API.

    A span is opened around each call the benchmark makes into a layer;
    parents are tracked per thread, so closed-loop clients trace
    independently.  ``synthetic`` adds a child span from a duration the
    public API already reports (``QueryResult.timings``,
    ``CTPReport.seconds``) — the program measured it, the benchmark only
    files it under the right parent.  Spans stay in memory and are
    written once, at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def _push(self, span: Span) -> None:
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, request: Any = None, **attrs: Any) -> Iterator[Span]:
        stack = self._stack.__dict__.setdefault("items", [])
        parent = stack[-1] if stack else None
        span = Span(
            id=-1,
            name=name,
            layer=layer,
            request=request if request is not None else (parent.request if parent else None),
            parent=parent.id if parent else None,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self._push(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        request: Any = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """File a span that was timed elsewhere (set-up stages, reported times)."""
        span = Span(
            id=-1,
            name=name,
            layer=layer,
            request=request if request is not None else (parent.request if parent else None),
            parent=parent.id if parent else None,
            start=start,
            end=end,
            attrs=attrs,
        )
        self._push(span)
        return span

    def synthetic(self, parent: Span, name: str, layer: str, seconds: float, **attrs: Any) -> Span:
        """File a program-reported duration as a child of ``parent``."""
        return self.add(
            name, layer, parent.start, parent.start + seconds, parent=parent, reported=True, **attrs
        )

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + (span.end - span.start)
        out: Dict[str, float] = {}
        for span in self.spans:
            own = (span.end - span.start) - children.get(span.id, 0.0)
            out[span.layer] = out.get(span.layer, 0.0) + max(own, 0.0)
        return out

    def write(self, path: str) -> None:
        """One JSON line per span, then one with the per-layer self seconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "request": span.request,
                            "name": span.name,
                            "layer": span.layer,
                            "start": round(span.start, 6),
                            "end": round(span.end, 6),
                            **({"attrs": span.attrs} if span.attrs else {}),
                        },
                        default=str,
                    )
                    + "\n"
                )
            handle.write(json.dumps({"self_seconds_by_layer": self.self_seconds()}) + "\n")


class NullRecorder:
    """The ``span`` surface of :class:`Recorder`; records nothing (untraced run)."""

    @contextmanager
    def span(self, name: str, layer: str, request: Any = None, **attrs: Any) -> Iterator[None]:
        yield None


# ----------------------------------------------------------------------
# what the sandbox did to the clock: stolen time and machine speed
# ----------------------------------------------------------------------
#: CPU time the calibration kernel takes on the reference machine.  Every
#: time-based metric is reported in *reference time*: measured time, minus
#: the share the hypervisor took away, x REFERENCE_SECONDS / (kernel time
#: measured next to it).
REFERENCE_SECONDS = 0.005

_KERNEL_TABLE = {key: key for key in range(0x1000)}
_KERNEL_DATA = list(range(256))


def _kernel() -> int:
    """A fixed piece of interpreter work (dict, list, heap, int arithmetic).

    It allocates no container, so it never triggers a garbage collection
    whose cost would depend on the workload's heap, and it is the
    benchmark's own code: a change to the program cannot move it.
    """
    table, data = _KERNEL_TABLE, _KERNEL_DATA
    heap: List[int] = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(9000):
        key = (i * 2654435761) & 0xFFF
        acc += table[key] ^ data[key & 255]
        table[key] = acc & 0xFFFF
        push(heap, acc & 0xFFFFF)
        if len(heap) > 64:
            acc += pop(heap)
    return acc


def _cpu_stat() -> Tuple[float, float]:
    """System-wide (busy, stolen) CPU seconds so far, from ``/proc/stat``."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return (user + nice + system + irq + softirq) / _CLK_TCK, steal / _CLK_TCK


class Gauge:
    """Corrects measured times for what the shared sandbox did meanwhile.

    The benchmark runs on a small shared VM where two things move every
    timing by 10-30 % for seconds to minutes at a stretch, far more than
    the bounds a regression is judged by:

    * **stolen time** — the hypervisor runs someone else on this vCPU.
      ``/proc/stat`` counts it, so over a window the share of the CPU time
      the machine's processes asked for that they actually got is
      ``busy / (busy + stolen)``; wall times measured in the window are
      multiplied by it (for a single busy thread that is its CPU time).
    * **speed** — contended caches and clocks: the same instructions take
      longer.  A fixed calibration kernel runs right next to the measured
      operations (~10 % of the time) and times are scaled by
      ``REFERENCE_SECONDS`` / the median CPU time of its runs.

    One ``ctp_synthetic`` pass measured 2.05 s and, minutes later, 1.75 s,
    while its ratio to the kernel moved by under 3 %.
    """

    #: Share of the measured time spent calibrating next to it.
    SHARE = 0.1

    def __init__(self) -> None:
        self.kernel_seconds: List[float] = []
        self.mark()

    def mark(self) -> None:
        """Start a window for ``got_share``."""
        self._busy, self._stolen = _cpu_stat()

    def got_share(self) -> float:
        """busy / (busy + stolen) since ``mark`` (1.0 when too short to tell)."""
        busy, stolen = _cpu_stat()
        busy, stolen = busy - self._busy, stolen - self._stolen
        return busy / (busy + stolen) if busy + stolen >= 0.2 else 1.0

    def sample(self, beside_seconds: float = 0.0) -> None:
        """Run the kernel for ~``SHARE`` of ``beside_seconds`` (at least once)."""
        runs = min(40, max(1, round(beside_seconds * self.SHARE / REFERENCE_SECONDS)))
        for _ in range(runs):
            started = time.thread_time()
            _kernel()
            self.kernel_seconds.append(time.thread_time() - started)

    def speed(self, last: Optional[int] = None) -> float:
        """Reference / median kernel time over the last ``last`` runs (all)."""
        samples = self.kernel_seconds[-last:] if last else self.kernel_seconds
        return REFERENCE_SECONDS / median(samples) if samples else 1.0


# ----------------------------------------------------------------------
# operation lists measured in whole passes
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One operation of a pass-based workload.

    ``call`` runs it and returns whatever the public API returned;
    ``signature`` reduces that to a small tuple of exact counts compared
    across passes (and, through ``expected.json``, across commits).
    """

    name: str
    call: Callable[[], Any]
    signature: Callable[[Any], Tuple[Any, ...]]


@dataclass
class PassLog:
    """What the measured passes of one run produced (reference-speed time)."""

    pass_busy: List[float] = field(default_factory=list)  # seconds inside ops, per pass
    pass_ok: List[int] = field(default_factory=list)
    #: Per operation, its latency in each pass it succeeded in.
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall: float = 0.0  # as measured, calibration included
    ok: int = 0
    speed_factors: List[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def run_pass(
    ops: Sequence[Op],
    order: Sequence[int],
    reference: Dict[str, Tuple[Any, ...]],
    log: PassLog,
    keep: Optional[Dict[str, Any]] = None,
) -> None:
    """Run every op once, in ``order``; time each call on its own.

    These workloads are single-threaded computation, so the clock is the
    calling thread's CPU clock: wall time minus exactly the moments the
    sandbox ran something else (what ``Gauge.got_share`` estimates for a
    whole window, here per call).  A pass's busy time is the sum of its
    op times, so the harness's own bookkeeping between calls (signatures,
    calibration) is not charged to the program.  The calibration kernel
    runs after every op and the pass's times are scaled by its speed.  An
    op fails when it raises or when its signature differs from the first
    one seen for it (``reference``).
    """
    gauge = Gauge()
    gauge.sample()
    busy = 0.0
    latencies: Dict[str, float] = {}
    ok = 0
    for index in order:
        op = ops[index]
        log.attempted += 1
        started = time.thread_time()
        try:
            out = op.call()
        except Exception as error:  # a failed op is a counted outcome, not a crash
            log.fail(f"{op.name}: raised {type(error).__name__}: {error}")
            busy += time.thread_time() - started
            continue
        elapsed = time.thread_time() - started
        busy += elapsed
        gauge.sample(elapsed)
        signature = op.signature(out)
        if reference.setdefault(op.name, signature) != signature:
            log.fail(f"{op.name}: signature {signature} != first seen {reference[op.name]}")
            continue
        if keep is not None:
            keep[op.name] = out
        ok += 1
        latencies[op.name] = elapsed * 1000.0
    speed = gauge.speed()
    log.speed_factors.append(round(speed, 3))
    log.pass_busy.append(busy * speed)
    for name, latency in latencies.items():
        log.latencies_ms.setdefault(name, []).append(latency * speed)
    log.pass_ok.append(ok)
    log.ok += ok


def measure_passes(
    ops: Sequence[Op],
    seconds: float,
    rng: Any,
    reference: Dict[str, Tuple[Any, ...]],
) -> PassLog:
    """Whole passes over ``ops`` in seeded order until ``seconds`` elapsed.

    Always whole passes: throughput is only comparable between runs that
    executed the same multiset of operations.
    """
    log = PassLog()
    gc.collect()
    started = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        run_pass(ops, order, reference, log)
        elapsed = time.perf_counter() - started
        # Stop at the whole number of passes nearest to ``seconds``.
        if elapsed + 0.5 * elapsed / len(log.pass_ok) >= seconds:
            break
    log.wall = time.perf_counter() - started
    return log


def end_to_end(log: PassLog, setup_samples: Sequence[float], rss: float) -> Dict[str, float]:
    """The six end-to-end metrics of a pass-based run.

    Latency percentiles are taken across the operations of a pass, each
    operation standing for its median latency over the passes: the
    distribution is the workload's mix of cheap and expensive operations,
    not the sandbox's noise in single samples.
    """
    throughputs = [ratio(ok, busy) for ok, busy in zip(log.pass_ok, log.pass_busy)]
    typical = [median(samples) for samples in log.latencies_ms.values()]
    return {
        "setup_s": median(setup_samples),
        "throughput_ops_s": median(throughputs),
        "latency_p50_ms": quantile(typical, 50),
        "latency_p95_ms": quantile(typical, 95),
        # single-threaded: the CPU spent is the busy time of the ops
        "cpu_ms_per_op": ratio(sum(log.pass_busy) * 1000.0, log.ok),
        "peak_rss_mb": rss,
    }


def repeated_setup(
    build: Callable[[], Any],
    teardown: Callable[[Any], None],
    repeats: int,
) -> Tuple[Any, List[float]]:
    """Set the workload up ``repeats`` times; keep the last state.

    ``setup_s`` is reported as the median of the samples, so one slow
    fork or page-cache miss does not decide it.  Each sample is corrected
    by a :class:`Gauge` around it.
    """
    samples: List[float] = []
    state = None
    gauge = Gauge()
    for index in range(repeats):
        gc.collect()
        gauge.sample(1.0)
        gauge.mark()
        started = time.perf_counter()
        state = build()
        elapsed = (time.perf_counter() - started) * gauge.got_share()
        gauge.sample(1.0)
        samples.append(elapsed * gauge.speed(last=40))
        if index < repeats - 1:
            teardown(state)
            state = None
    return state, samples
