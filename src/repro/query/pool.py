"""A persistent process pool for CTP evaluation: warm workers, many queries.

Process dispatch runs each CTP in a worker interpreter initialized once
with an mmap-shared CSR snapshot and holding a private long-lived
:class:`~repro.ctp.context.SearchContext`.  What that costs is spin-up —
fork/forkserver plus a per-worker snapshot load — and a warm per-worker
context that is worth keeping, so the serving regime the paper's
integrated evaluator implies (many queries, one graph) needs the workers
to outlive the query.

:class:`WorkerPool` owns **one** executor for the lifetime of the pool;
every pooled dispatch in :mod:`repro.query.parallel` runs through the
pool its caller passed in (a query without one runs its CTPs inline).

* **Load once, serve forever** — workers run
  :func:`~repro.query.parallel._process_worker_init` exactly once, when
  they spawn; every job any worker ever runs reuses its mmap-backed graph
  and its private context (edge-set pool and cross-CTP memo stay warm
  *across requests*, not just across the CTPs of one query) until a job
  names a newer base.
* **Health & respawn** — :meth:`ping` round-trips a probe through a
  worker; a fan-out that dies with a
  :class:`~concurrent.futures.process.BrokenProcessPool` or hangs
  triggers :meth:`respawn` (tear down, counted in :attr:`respawns`) and
  runs inline, and the next dispatch builds fresh workers — so a crashed
  worker costs one inline fan-out, not permanent inline degradation.
* **Snapshot generations (MVCC)** — the pool snapshots the source graph's
  *base* (:meth:`~repro.graph.graph.Graph.ensure_base`); mutations ship as
  cheap picklable :class:`~repro.graph.delta.GraphDelta` objects applied
  by the workers over their mmap-loaded base, so a mutated graph costs a
  delta encoded once per generation (and decoded by a worker only when it
  holds another) instead of a re-serialize.  The pool never decides when
  base ∪ delta is refrozen — the graph's writer does
  (:meth:`~repro.graph.graph.Graph.compact`, called by ``QueryServer``'s
  ingest); a moved base is the pool's one reason to write a new snapshot
  generation (counted in :attr:`~WorkerPool.resnapshots`, avoided
  dispatches in :attr:`~WorkerPool.resnapshots_avoided`).
* **Base moves re-map, never respawn** — every job names the base it
  was resolved against (snapshot path, base generation); a warm worker
  mapping another one maps the named file (an O(header) load) instead.
  A base its worker cannot map (superseded files are unlinked at once)
  raises :class:`~repro.errors.StaleViewError`, served in-process.
* **Explicit lifecycle** — :meth:`close` (or the context-manager form)
  shuts the executor down and eagerly releases the pool's auto-snapshot
  temp file (:func:`repro.graph.snapshot.release_auto_snapshot`) instead
  of leaking it until interpreter exit.

Inject a pool into :func:`~repro.query.evaluator.evaluate_query` /
:func:`~repro.query.parallel.evaluate_queries` (``pool=...``) to run
their CTPs in it, or let :class:`repro.serve`'s ``QueryServer`` own one
for you.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.ctp.config import SearchConfig
from repro.errors import PoolClosedError, PoolError, StaleViewError
from repro.graph.delta import GraphDelta, OverlayGraph
from repro.graph.snapshot import ensure_snapshot, release_auto_snapshot
from repro.query.resilience import PoolResilienceConfig

#: Sentinel for :meth:`WorkerPool.submit`'s ``delta`` parameter: "resolve
#: the current delta for me".  The dispatch layer resolves once per fan-out
#: via :meth:`WorkerPool._resolve` and passes the result explicitly;
#: direct callers get per-submit resolution so they can never read stale
#: topology from the workers' base snapshot.
_UNRESOLVED: Any = object()


class _Resolved(NamedTuple):
    """The delta a fan-out's jobs ship, encoded once per generation
    (:meth:`GraphDelta.encode`), and the base they name for it: (snapshot
    path, base generation) — :func:`_process_worker_run`'s tail."""

    delta: Optional[GraphDelta]
    base: Tuple[Optional[str], Optional[int]]


def _worker_rss_mb(pid: int) -> Optional[float]:
    """Resident set of ``pid`` in MiB via ``/proc`` (None where unsupported).

    Best-effort: any platform without procfs, or a pid that exited between
    listing and reading, yields ``None`` and the caller skips the check —
    RSS-based recycling is an optimization, never a correctness gate.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def _worker_probe(base: Any) -> Dict[str, Any]:
    """Health probe, executed *inside* a worker: report what it holds.

    A worker that answers proves the round trip (parent -> queue -> worker
    -> queue -> parent) and reports whether it is really warm (mapping
    ``base``, named like a job's): a loaded graph and a live context with
    its cumulative run count.
    """
    from repro.query import parallel

    parallel._worker_state_for(None, base)
    graph = parallel._worker_graph
    context = parallel._worker_context
    return {
        "pid": os.getpid(),
        "graph_loaded": graph is not None,
        "snapshot_path": getattr(graph, "snapshot_path", None),
        "context_runs": context.runs if context is not None else -1,
    }


class WorkerPool:
    """A reusable, health-checked process pool bound to one graph.

    Parameters
    ----------
    graph:
        The graph every job runs against.  The pool freezes and snapshots
        its base on first use (reusing an existing snapshot file when the
        graph has one) and re-snapshots when a compaction moves the base;
        a frozen CSR source cannot mutate and is snapshotted once.
    workers:
        Worker process count (default: ``os.cpu_count()``).

    The pool is thread-safe: any number of request-handler threads may
    :meth:`submit` concurrently (``ProcessPoolExecutor`` serializes the
    actual task queue).  It is also lazy — no processes exist until the
    first submit/ping — so constructing one is cheap.
    """

    def __init__(
        self,
        graph: Any,
        workers: Optional[int] = None,
        resilience: Optional[PoolResilienceConfig] = None,
    ):
        if workers is not None and workers < 1:
            raise PoolError(f"WorkerPool needs workers >= 1, got {workers}")
        self.graph = graph
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        #: Lifecycle knobs (recycling thresholds, hang watchdog budgets).
        self.resilience = resilience if resilience is not None else PoolResilienceConfig()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._csr: Any = None
        self._snapshot_path: Optional[str] = None
        self._snapshot_generation: Optional[int] = None
        self._lock = threading.Lock()
        self._closed = False
        #: Executor teardowns after a crashed or hung fan-out.
        self.respawns = 0
        #: Number of snapshot regenerations forced by a base-generation move.
        self.resnapshots = 0
        #: Jobs submitted over the pool's lifetime (all executor epochs).
        self.dispatches = 0
        #: Health probes served (a successful ping proves spawned workers).
        self.pings = 0
        #: Hang-watchdog recoveries (kill-teardowns of a wedged executor).
        self.hangs = 0
        #: Proactive worker recycles (request-count or RSS threshold).
        self.recycles = 0
        #: Mutated-graph dispatches served by shipping a delta instead of
        #: paying a full re-snapshot (one per delta generation).
        self.resnapshots_avoided = 0
        # Work served by the CURRENT executor epoch — warmth is per epoch
        # (a respawned-but-idle executor is cold again), while the public
        # counters above are lifetime totals.
        self._epoch_work = 0
        self._rss_countdown = self.resilience.rss_check_every
        self._last_delta_generation: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def warm(self) -> bool:
        """Whether a live executor exists *and* has served at least one job.

        "Warm" is the amortization claim: the next submit reuses spawned,
        snapshot-loaded workers instead of paying spin-up.  A freshly
        constructed (or respawned-but-idle) pool is not warm yet; a
        successful :meth:`ping` (e.g. via a server's ``prewarm``) counts —
        the probe round trip proves spawned, snapshot-loaded workers just
        as a real job does.
        """
        return self._executor is not None and self._epoch_work > 0

    @property
    def snapshot_path(self) -> Optional[str]:
        return self._snapshot_path

    @property
    def snapshot_generation(self) -> Optional[int]:
        return self._snapshot_generation

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the executor down and release pool-owned temp state.

        Idempotent.  The auto-snapshot file (if the pool created one) is
        unlinked *now* rather than at interpreter exit — a long-lived
        server cycles pools (respawns, graph generations) and would
        otherwise stack up one stranded temp file per cycle.  Explicitly
        saved snapshot files are never touched.
        """
        with self._lock:
            self._closed = True
            self._shutdown_locked()
            release_auto_snapshot(self._snapshot_path)
            self._snapshot_path = None
            self._csr = None

    def _shutdown_locked(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # executor management
    # ------------------------------------------------------------------
    def _snapshot_locked(self) -> None:
        """Align the pool's snapshot file with the graph's current *base*.

        MVCC graphs (anything with :meth:`~repro.graph.graph.Graph.ensure_base`)
        are snapshotted at their base generation — later mutations ship as
        deltas (:meth:`prepare_for`), so only a *base* move (compaction)
        writes a new file, releases the old one and charges ``resnapshots``
        — the workers stay up and re-map it when a job names it.  A frozen
        CSR bound directly cannot mutate: it is snapshotted once.
        """
        graph = self.graph
        if hasattr(graph, "ensure_base"):
            # The generation is read off the base itself: a compaction by the
            # writer may land after ensure_base() returns, and the graph's
            # base_generation would then label this base with the next one's.
            base = graph.ensure_base()
            generation = base.base_generation
        else:
            base = graph
            generation = getattr(graph, "generation", 0)
        if self._snapshot_path is not None and generation == self._snapshot_generation:
            return
        if self._snapshot_generation is not None:
            release_auto_snapshot(self._snapshot_path)
            self._snapshot_path = None
            self.resnapshots += 1
        # ensure_snapshot may raise (unpicklable metadata, I/O): the caller
        # decides how to degrade; the pool stays constructible/closable.
        self._csr, self._snapshot_path = ensure_snapshot(base)
        self._snapshot_generation = generation

    def _resolve_delta_locked(self, graph: Any) -> Optional[GraphDelta]:
        """Follow the source's base and return the delta ``graph`` requires.

        ``graph`` is whatever the dispatch holds:
        the pool's mutable source graph (serve its *current* delta), a
        pinned :class:`~repro.graph.delta.OverlayGraph` view (serve its
        own delta so the evaluation stays at the pinned generation), a
        pinned base CSR view (no delta), or a frozen CSR source (no delta).
        Raises :class:`~repro.errors.StaleViewError` when a pinned view
        predates the workers' base — the pooled path cannot reconstruct
        that generation, and the dispatch layer degrades to inline.
        """
        source = self.graph if graph is self.graph else getattr(graph, "view_source", None)
        if source is None or not hasattr(source, "ensure_base"):
            self._snapshot_locked()
            return None
        self._snapshot_locked()
        pool_generation = self._snapshot_generation
        if graph is source:
            delta = source.delta_since_base()
            while delta.base_generation != pool_generation:
                # The writer compacted after the snapshot: follow the new base.
                self._snapshot_locked()
                pool_generation = self._snapshot_generation
                delta = source.delta_since_base()
        elif isinstance(graph, OverlayGraph):
            delta = graph.delta
            if delta.generation == pool_generation:
                # Compaction landed exactly at this view's generation: the
                # workers' fresh base equals the view's contents.
                return None
            if delta.base_generation != pool_generation:
                raise StaleViewError(
                    f"pinned view at generation {delta.generation} builds on base "
                    f"{delta.base_generation}, but the pool's workers hold base "
                    f"{pool_generation}"
                )
        else:
            # A pinned frozen base view: servable iff it IS the current base.
            view_generation = getattr(graph, "base_generation", None)
            if view_generation is None:
                view_generation = getattr(graph, "generation", 0)
            if view_generation == pool_generation:
                return None
            raise StaleViewError(
                f"pinned base view at generation {view_generation} predates the "
                f"pool's base {pool_generation}"
            )
        if delta.size == 0:
            return None
        if delta.generation != self._last_delta_generation:
            self._last_delta_generation = delta.generation
            self.resnapshots_avoided += 1
        return delta

    def _ensure_locked(self) -> ProcessPoolExecutor:
        """The live executor, (re)built as needed.  Caller holds the lock.

        Snapshot freshness is owned by :meth:`_snapshot_locked` (run from
        every :meth:`prepare_for`/:meth:`submit` resolution); this method
        only (re)builds the executor over the current snapshot file —
        first use, or after a respawn/recycle tore it down.
        """
        from repro import faults
        from repro.query.parallel import _process_pool_context, _process_worker_init

        if self._closed:
            raise PoolClosedError("WorkerPool is closed")
        if self._snapshot_path is None:
            self._snapshot_locked()
        if self._executor is not None:
            return self._executor
        self._epoch_work = 0
        # Workers must re-apply any installed fault plan themselves (module
        # globals do not survive the forkserver/spawn boundary); the epoch
        # lets specs target specific worker generations, so an epoch-0-only
        # crash stops firing once recovery replaced the workers.
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_process_pool_context(),
            initializer=_process_worker_init,
            initargs=(*self._base, faults.active_plan(), self.respawns + self.recycles),
        )
        return self._executor

    @property
    def _base(self) -> Tuple[Optional[str], Optional[int]]:
        """The base a job resolved now names: (snapshot path, base generation)."""
        return self._snapshot_path, self._snapshot_generation

    def _maybe_recycle_locked(self) -> None:
        """Proactive worker recycling, checked at dispatch boundaries only.

        Recycling mid-fan-out would cancel a query's own in-flight jobs, so
        the check runs exclusively from :meth:`prepare` — between queries.
        Two triggers: the current executor epoch served ``recycle_after``
        jobs, or a worker's RSS (sampled every ``rss_check_every``
        dispatches via ``/proc``) exceeds ``max_worker_rss_mb`` — the leaky
        scorer case the ROADMAP names, where a worker accretes state no
        single request is responsible for.  Tearing down here is enough:
        :meth:`_ensure_locked` rebuilds on the next use, and the fresh
        workers re-run the initializer over the same snapshot file.
        """
        if self._executor is None:
            return
        rules = self.resilience
        reason = None
        if rules.recycle_after is not None and self._epoch_work >= rules.recycle_after:
            reason = "requests"
        elif rules.max_worker_rss_mb is not None:
            self._rss_countdown -= 1
            if self._rss_countdown <= 0:
                self._rss_countdown = rules.rss_check_every
                for proc in list(getattr(self._executor, "_processes", {}).values()):
                    rss = _worker_rss_mb(proc.pid)
                    if rss is not None and rss > rules.max_worker_rss_mb:
                        reason = "rss"
                        break
        if reason is not None:
            self._shutdown_locked()
            self.recycles += 1

    def prepare(self) -> Any:
        """Freeze/snapshot the graph and make the executor live (no spawn
        is forced — workers start on first submit).  Recycling thresholds
        are evaluated here, at the dispatch boundary, so a worker set due
        for replacement is torn down *between* queries, never under one.
        Returns the frozen CSR graph the workers will map."""
        self.prepare_for(self.graph)
        return self._csr

    def prepare_for(self, graph: Any) -> Optional[GraphDelta]:
        """Dispatch-boundary preparation for a fan-out over ``graph``.

        Runs the recycling check, aligns the snapshot file with the
        source's (possibly moved) base, makes the executor live, and returns
        the delta the fan-out ships, encoded once per generation, with each
        job (``None`` when the workers' base alone reproduces ``graph``).
        Raises :class:`~repro.errors.StaleViewError` for views the workers
        can no longer serve consistently.
        """
        return self._resolve(graph).delta

    def _resolve(self, graph: Any) -> _Resolved:
        """:meth:`prepare_for`, plus the base it resolved (see :meth:`submit`)."""
        with self._lock:
            if self._closed:
                raise PoolClosedError("WorkerPool is closed")
            self._maybe_recycle_locked()
            delta = self._resolve_delta_locked(graph)
            self._ensure_locked()
            return _Resolved(delta, self._base)

    def respawn(self, kill: bool = False) -> None:
        """Tear the executor down and count it (crashed-worker recovery).

        Called by the dispatch layer when a fan-out dies with
        ``BrokenProcessPool`` or blows its hang watchdog.  The next
        dispatch's :meth:`_ensure_locked` builds a replacement executor,
        whose workers re-run the initializer over the same snapshot file —
        one spin-up, instead of every later dispatch silently degrading to
        inline forever.

        ``kill=True`` is the hang-recovery form, counted in :attr:`hangs`:
        a wedged worker would block the executor's graceful
        ``shutdown(wait=True)`` forever and keep its CPU, so the worker
        processes are killed outright and the shutdown does not wait.
        Pending futures are cancelled either way.
        """
        with self._lock:
            if self._closed:
                raise PoolClosedError("WorkerPool is closed")
            if kill and self._executor is not None:
                for proc in list(getattr(self._executor, "_processes", {}).values()):
                    try:
                        proc.kill()
                    except (OSError, ValueError, AttributeError):
                        pass
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            else:
                self._shutdown_locked()
            self.respawns += 1
            self.hangs += kill

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: str,
        seed_sets: List[Any],
        config: SearchConfig,
        delta: Any = _UNRESOLVED,
    ) -> Future:
        """Submit one CTP evaluation; returns a future of ``(result_set, seconds)``.

        ``delta`` is the :class:`~repro.graph.delta.GraphDelta` the worker
        applies over the pool's current base (``None`` = base only).  The
        dispatch layer passes :meth:`_resolve`'s result instead, naming the
        base resolved once per fan-out; when omitted, the pool resolves the
        source graph's *current* delta itself, so direct callers always see
        current topology.  The job carries the delta's one encoding per
        generation, keyed by its generation, never a fresh pickle.

        May raise ``BrokenProcessPool`` (executor already broken) or
        :class:`~repro.errors.PoolClosedError` (submitting after
        ``close()``); snapshot failures propagate from
        :func:`ensure_snapshot`, and an unpicklable delta raises what
        :func:`pickle.dumps` raises.  The dispatch layer answers a broken
        pool by tearing it down (:meth:`respawn`) and running the fan-out
        inline.
        """
        from repro.query.parallel import _process_worker_run

        with self._lock:
            if delta is _UNRESOLVED:
                delta = self._resolve_delta_locked(self.graph)
            executor = self._ensure_locked()
            job = delta if isinstance(delta, _Resolved) else _Resolved(delta, self._base)
            self.dispatches += 1
            self._epoch_work += 1
        encoded = None if job.delta is None else job.delta.encode()
        return executor.submit(_process_worker_run, algorithm, seed_sets, config, encoded, job.base)

    def ping(self, timeout: float = 5.0) -> Dict[str, Any]:
        """Round-trip a health probe through a worker.

        Proves the pool can spawn workers, run their initializer, and
        return results; the probe reports the worker's pid, whether its
        snapshot graph is loaded, and its context's cumulative run count.
        Raises whatever the probe run raises (``BrokenProcessPool``,
        ``TimeoutError``) — callers treat any exception as unhealthy.

        The default timeout is deliberately small: a ping exists to answer
        "is the pool responsive *now*", and a hung worker must fail the
        probe in bounded time instead of stalling health checks for the
        old 30-second default.  Cold spawn + snapshot load fits comfortably
        within it; callers expecting a heavyweight first spawn may pass a
        larger budget explicitly.
        """
        with self._lock:
            executor = self._ensure_locked()
            base = self._base
        probe = executor.submit(_worker_probe, base).result(timeout=timeout)
        with self._lock:
            self.pings += 1
            self._epoch_work += 1
        return probe

    def healthy(self, timeout: float = 5.0) -> bool:
        """Best-effort boolean form of :meth:`ping` (expiry = unhealthy)."""
        if self._closed:
            return False
        try:
            probe = self.ping(timeout=timeout)
        except Exception:  # noqa: BLE001 - any failure means unhealthy
            return False
        return bool(probe.get("graph_loaded"))

    def matches(self, graph: Any) -> bool:
        """Whether ``graph`` is the graph this pool serves.

        True for the bound graph itself, its memoized frozen view, any
        pinned MVCC view of it (``view_source`` stamp), or the CSR the
        pool snapshotted — the aliases a dispatch may hold.  Anything
        else must not run here (workers would
        silently search the wrong topology).
        """
        if graph is self.graph or (self._csr is not None and graph is self._csr):
            return True
        if getattr(graph, "view_source", None) is self.graph:
            return True
        return graph is getattr(self.graph, "_frozen_snapshot", None)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Lifecycle counters for server stats / bench reports."""
        return {
            "workers": self.workers,
            "warm": self.warm,
            "closed": self._closed,
            "dispatches": self.dispatches,
            "pings": self.pings,
            "respawns": self.respawns,
            "resnapshots": self.resnapshots,
            "hangs": self.hangs,
            "recycles": self.recycles,
            "snapshot_generation": self._snapshot_generation,
            "compactions": getattr(self.graph, "compactions", 0),
            "resnapshots_avoided": self.resnapshots_avoided,
            "delta_size": getattr(self.graph, "delta_size", 0),
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("warm" if self.warm else "cold")
        return f"WorkerPool(workers={self.workers}, {state}, dispatches={self.dispatches})"
