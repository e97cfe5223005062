"""Deterministic fault injection for the serving stack.

Chaos testing a long-lived query server is only useful when the chaos is
*reproducible*: a crash that fires "sometimes" produces flaky tests, and
a recovery latency measured against random faults cannot be compared
across commits.  This module provides a seeded, picklable
:class:`FaultPlan` that the real dispatch paths consult through three
tiny test-only hooks:

* :func:`repro.query.parallel._process_worker_run` calls
  :func:`inject(SITE_WORKER_RUN) <inject>` before evaluating, so a plan
  can **crash** the worker mid-CTP (``os._exit``), **hang** it past any
  deadline, make it return **slow**\\ ly, grow its **rss** with retained
  ballast, or raise a deterministic **scorer**-style exception
  (:class:`~repro.errors.FaultInjected`).
* :func:`repro.graph.snapshot.load_snapshot` calls
  :func:`corrupted_path` so a plan can hand a worker (or the parent) a
  **corrupt_snapshot** — a truncated copy of the real file, exercising
  the format's actual validation path
  (:class:`~repro.errors.SnapshotError`), not a mocked error.
* :class:`repro.query.pool.WorkerPool` ships the active plan to its
  workers through the executor ``initargs`` (module globals do not cross
  a forkserver/spawn boundary) together with the pool's **epoch** —
  ``respawns + recycles`` — so a spec gated with ``epochs=(0,)`` fires in
  the first worker generation and *stops* after recovery replaces it.
  Without epoch gating, a counter-indexed fault would re-fire in every
  fresh worker (per-process counters restart at zero) and "recovery"
  would be unobservable.

Everything is deterministic: firing is decided by per-site invocation
counters (``at``/``every``) or by an RNG seeded from ``(plan.seed, site,
counter)`` (``probability``) — never by wall clock or PID.

Usage (tests / ``python -m repro.bench chaos``)::

    plan = FaultPlan(specs=(FaultSpec.crash(at=(0,), epochs=(0,)),))
    install_plan(plan)
    try:
        ...  # drive the real server / dispatch paths
    finally:
        clear_plan()

The hooks are zero-cost when no plan is installed (one global ``is
None`` check); production code never constructs a plan.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, FaultInjected

#: Hook sites.  ``worker_run`` fires inside :func:`_process_worker_run`
#: (one count per CTP evaluation in that process); ``snapshot_load``
#: fires inside :func:`load_snapshot` (one count per load in that
#: process, including worker initializers).
SITE_WORKER_RUN = "worker_run"
SITE_SNAPSHOT_LOAD = "snapshot_load"

#: Fault kinds.
KIND_CRASH = "crash"
KIND_HANG = "hang"
KIND_SLOW = "slow"
KIND_RSS = "rss"
KIND_SCORER = "scorer"
KIND_CORRUPT_SNAPSHOT = "corrupt_snapshot"

_KINDS = (KIND_CRASH, KIND_HANG, KIND_SLOW, KIND_RSS, KIND_SCORER, KIND_CORRUPT_SNAPSHOT)
_SITES = (SITE_WORKER_RUN, SITE_SNAPSHOT_LOAD)


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: what happens, where, and on which invocations.

    Firing rule (evaluated against the site's per-process invocation
    counter, 0-based): ``at`` wins when set (fire exactly on those
    counts), else ``every`` (fire on every ``every``-th count), else
    ``probability`` (seeded coin flip per count), else fire on *every*
    invocation.  ``epochs`` additionally gates the spec to specific
    worker generations (see the module docstring); ``None`` means all.
    """

    kind: str
    site: str = SITE_WORKER_RUN
    at: Optional[Tuple[int, ...]] = None
    every: Optional[int] = None
    probability: Optional[float] = None
    epochs: Optional[Tuple[int, ...]] = None
    #: Sleep length for ``slow``/``hang`` (a hang just sleeps far past
    #: any watchdog — the parent kills the worker long before it wakes).
    seconds: float = 0.05
    #: Ballast per ``rss`` firing, MiB (retained for the process's life).
    grow_mb: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r} (one of {_KINDS})")
        if self.site not in _SITES:
            raise ConfigError(f"unknown fault site {self.site!r} (one of {_SITES})")
        if self.kind == KIND_CORRUPT_SNAPSHOT and self.site != SITE_SNAPSHOT_LOAD:
            raise ConfigError("corrupt_snapshot faults only fire at the snapshot_load site")
        if self.kind != KIND_CORRUPT_SNAPSHOT and self.site == SITE_SNAPSHOT_LOAD:
            raise ConfigError(f"{self.kind!r} faults cannot fire at the snapshot_load site")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if self.every is not None and self.every < 1:
            raise ConfigError(f"every must be >= 1, got {self.every}")
        if self.seconds < 0 or self.grow_mb <= 0:
            raise ConfigError("seconds must be >= 0 and grow_mb > 0")

    # Convenience constructors — tests read better with
    # ``FaultSpec.crash(at=(0,))`` than with positional kind strings.
    @classmethod
    def crash(cls, **kw: Any) -> "FaultSpec":
        return cls(kind=KIND_CRASH, **kw)

    @classmethod
    def hang(cls, seconds: float = 3600.0, **kw: Any) -> "FaultSpec":
        return cls(kind=KIND_HANG, seconds=seconds, **kw)

    @classmethod
    def slow(cls, seconds: float = 0.05, **kw: Any) -> "FaultSpec":
        return cls(kind=KIND_SLOW, seconds=seconds, **kw)

    @classmethod
    def rss(cls, grow_mb: float = 8.0, **kw: Any) -> "FaultSpec":
        return cls(kind=KIND_RSS, grow_mb=grow_mb, **kw)

    @classmethod
    def scorer(cls, **kw: Any) -> "FaultSpec":
        return cls(kind=KIND_SCORER, **kw)

    @classmethod
    def corrupt_snapshot(cls, **kw: Any) -> "FaultSpec":
        kw.setdefault("site", SITE_SNAPSHOT_LOAD)
        return cls(kind=KIND_CORRUPT_SNAPSHOT, **kw)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s.  Picklable by construction
    (frozen dataclasses of primitives) so it crosses the executor
    ``initargs`` boundary to forkserver/spawn workers intact."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def active_specs(self, site: str, counter: int, epoch: int) -> Tuple[FaultSpec, ...]:
        """The specs that fire for invocation ``counter`` of ``site``."""
        fired = []
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.epochs is not None and epoch not in spec.epochs:
                continue
            if spec.at is not None:
                if counter not in spec.at:
                    continue
            elif spec.every is not None:
                if counter % spec.every != 0:
                    continue
            elif spec.probability is not None:
                roll = random.Random(f"{self.seed}:{site}:{counter}:{index}").random()
                if roll >= spec.probability:
                    continue
            fired.append(spec)
        return tuple(fired)


# ----------------------------------------------------------------------
# per-process plan state
# ----------------------------------------------------------------------
_active_plan: Optional[FaultPlan] = None
_epoch: int = 0
_counters: Dict[str, int] = {}
#: Retained allocations made by ``rss`` faults (lives until process exit
#: or :func:`clear_plan` — exactly the leak shape worker recycling cures).
_ballast: list = []


def install_plan(plan: Optional[FaultPlan], epoch: int = 0) -> None:
    """Install ``plan`` for this process (``None`` is equivalent to
    :func:`clear_plan`).  Resets the site counters — a plan installation
    marks the start of a fresh deterministic run."""
    global _active_plan, _epoch
    _active_plan = plan
    _epoch = epoch
    _counters.clear()
    _ballast.clear()


def clear_plan() -> None:
    """Remove any installed plan and drop its ballast/counters."""
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _active_plan


def _next_counter(site: str) -> int:
    count = _counters.get(site, 0)
    _counters[site] = count + 1
    return count


def inject(site: str) -> None:
    """Hook entry: apply every fault firing at this invocation of ``site``.

    Called by the real dispatch paths; a no-op (one ``is None`` check)
    unless a plan is installed.  Effects: ``crash`` exits the process
    abruptly (``os._exit`` — no cleanup, exactly like a segfault as seen
    from the parent's ``BrokenProcessPool``); ``hang``/``slow`` sleep;
    ``rss`` retains ballast; ``scorer`` raises
    :class:`~repro.errors.FaultInjected` (a deterministic user-code
    error: not a pool failure, never re-run; it must surface to the caller
    as a typed error).
    """
    plan = _active_plan
    if plan is None:
        return
    counter = _next_counter(site)
    for spec in plan.active_specs(site, counter, _epoch):
        if spec.kind == KIND_CRASH:
            os._exit(13)
        elif spec.kind in (KIND_HANG, KIND_SLOW):
            time.sleep(spec.seconds)
        elif spec.kind == KIND_RSS:
            _ballast.append(bytearray(int(spec.grow_mb * 1024 * 1024)))
        elif spec.kind == KIND_SCORER:
            raise FaultInjected(
                f"injected scorer failure (site={site}, invocation={counter}, epoch={_epoch})"
            )


def corrupted_path(path: Any) -> Any:
    """Hook entry for :func:`repro.graph.snapshot.load_snapshot`.

    When a ``corrupt_snapshot`` fault fires for this load, return the
    path of a *truncated copy* of ``path`` — the loader then trips the
    format's real truncation validation and raises
    :class:`~repro.errors.SnapshotError`; otherwise return ``path``
    unchanged.  The copy is pid-tagged like an auto-snapshot
    (``repro-csr-<pid>-fault*.snapshot``) so
    :func:`repro.graph.snapshot._reap_stale_snapshots` collects it once
    this process dies, even when the process is a crashed worker.
    """
    plan = _active_plan
    if plan is None:
        return path
    counter = _next_counter(SITE_SNAPSHOT_LOAD)
    fired = plan.active_specs(SITE_SNAPSHOT_LOAD, counter, _epoch)
    if not any(spec.kind == KIND_CORRUPT_SNAPSHOT for spec in fired):
        return path
    return _truncated_copy(path, counter)


def _truncated_copy(path: Any, counter: int, fraction: float = 0.6) -> str:
    """Write a ``fraction``-length prefix copy of ``path`` and return it.

    60% keeps the prefix + JSON header intact for typical snapshots, so
    the loader fails on the *payload truncation* check — the deepest
    validation a short read can reach — rather than on a missing magic.
    """
    size = os.path.getsize(path)
    keep = max(1, int(size * fraction))
    fd, copy_path = tempfile.mkstemp(
        prefix=f"repro-csr-{os.getpid()}-fault{counter}-", suffix=".snapshot"
    )
    with open(path, "rb") as src, os.fdopen(fd, "wb") as dst:
        dst.write(src.read(keep))
    return copy_path
