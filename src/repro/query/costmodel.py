"""Per-CTP cost estimation and the scheduling decisions it feeds.

Per-fragment evaluation cost varies wildly ("Complexity of Evaluating GQL
Queries"): a CONNECT over two 3-node seed sets on a sparse label is
milliseconds, one over hundreds of seeds with a wildcard is the whole
query budget.  The raw signals are already in the system — seed-set sizes
from step (A) bindings, per-label edge counts off the CSR label indexes,
the algorithm class, the MVCC delta-overlay size — this module turns them
into a scalar cost estimate per CTP and feeds four decisions, made for
every query (there is no switch):

1. **auto mode selection** — ``parallelism_mode="auto"`` picks
   serial/thread/process per query by comparing the estimated total cost
   against dispatch-overhead constants (:func:`choose_mode`), so a cheap
   query never pays executor spin-up and an expensive one never serializes
   behind the GIL;
2. **longest-first ordering** — the fan-out submits the most expensive
   CTPs first (:meth:`QuerySchedule.ordered`), shrinking the makespan when
   workers outnumber the stragglers (memo filing stays in CTP order, so
   rows and cache LRU state are unchanged — see
   :class:`repro.query.parallel.Dispatch`);
3. **deadline shares** — under ``SearchConfig.deadline`` a
   :class:`DeadlineLedger` gives each CTP its cost-proportional share of
   the query's wall budget and re-grants unspent budget from fast CTPs to
   still-pending slow ones at *execution* time; a grant never drops below
   the original build budget;
4. **pipelined (A)→(B) overlap** — under thread dispatch the evaluator
   feeds a CTP to the dispatch the moment its seed variables resolve,
   while later BGPs are still materializing (the ledger then registers
   CTPs incrementally).

Everything here is deliberately picklable (plain dataclasses, no
callables) so an estimator can ride a job to a pool worker.

The estimate is in abstract *cost units*, not seconds: only ordering and
ratios are consumed, so the units never need calibration against a host.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Relative weight of each CTP algorithm class (registry names).  The
#: complete algorithms (bft family, gam) enumerate every minimal tree and
#: sit above 1.0; the heuristic ESP family prunes aggressively and sits
#: below; the Mo variants pay provenance copies on top of their base
#: algorithm.  Calibrated from the checked-in micro-bench ratios
#: (BENCH_parallel.json): only the *relative* order matters.
ALGORITHM_WEIGHTS: Dict[str, float] = {
    "bft": 1.0,
    "bft-m": 1.3,
    "bft-am": 1.1,
    "gam": 1.6,
    "esp": 0.5,
    "moesp": 0.8,
    "lesp": 0.6,
    "molesp": 0.9,
}

#: Weight for an algorithm missing from :data:`ALGORITHM_WEIGHTS` (a
#: user-registered engine): assume the worst checked-in class.
DEFAULT_ALGORITHM_WEIGHT = 1.6

# ----------------------------------------------------------------------
# auto-mode dispatch-overhead constants (cost units, same scale as
# CTPCostEstimator.estimate).  Derived from the checked-in bench suites:
# thread dispatch costs ~a pool submit + context locking; warm process
# dispatch adds pickling seeds/results over a live worker (BENCH_serve
# warm p50 ~10ms); cold process dispatch spawns interpreters and loads
# the snapshot per worker (BENCH_serve cold p50 ~400-650ms, i.e. ~50x).
# ----------------------------------------------------------------------
#: Below this estimated *total* query cost, even thread dispatch is not
#: worth the executor + locking overhead: run the serial loop.
THREAD_DISPATCH_THRESHOLD = 64.0
#: Total cost above which process dispatch pays for itself when a warm
#: persistent pool exists (per-job IPC only).
PROCESS_WARM_THRESHOLD = 2048.0
#: Total cost above which process dispatch pays for itself when workers
#: must be spawned and must each load the snapshot (no pool, or cold).
PROCESS_COLD_THRESHOLD = 65536.0


@dataclass(frozen=True)
class CostFeatures:
    """The feature vector one CTP estimate is computed from.

    ``total_seed_size`` counts every seed node the search starts from,
    with a wildcard (N) seed set counted as the whole node set.
    ``reachable_edges`` is the label-selectivity signal: the number of
    edges the search may traverse — the sum of the per-label index
    cardinalities when a ``LABEL`` filter is pushed down, all edges
    otherwise — plus the MVCC delta overlay's edges (not yet in any
    index, so always assumed traversable).
    """

    algorithm: str
    num_seed_sets: int
    total_seed_size: int
    reachable_edges: int
    delta_size: int
    max_edges: Optional[int] = None

    def as_tuple(self) -> Tuple[Any, ...]:
        """Golden-vector form for tests: stable field order."""
        return (
            self.algorithm,
            self.num_seed_sets,
            self.total_seed_size,
            self.reachable_edges,
            self.delta_size,
            self.max_edges,
        )


@dataclass(frozen=True)
class CTPCostEstimator:
    """Maps a CTP's :class:`CostFeatures` to an abstract scalar cost.

    Shape: ``weight(algorithm) * num_seed_sets * (1 + total_seed_size) *
    (1 + log1p(reachable_edges + delta_size)) * depth`` where ``depth``
    grows with ``MAX n`` (a larger tree bound admits deeper frontiers).
    The product of nonnegative monotone terms is **monotone** in the seed
    size and in the label cardinality and **never negative** — the two
    properties the scheduler relies on (pinned by Hypothesis in
    ``tests/test_costmodel.py``).  Frozen and callable-free, so it
    pickles to pool workers.
    """

    weights: Tuple[Tuple[str, float], ...] = tuple(sorted(ALGORITHM_WEIGHTS.items()))

    def weight(self, algorithm: str) -> float:
        for name, value in self.weights:
            if name == algorithm:
                return value
        return DEFAULT_ALGORITHM_WEIGHT

    def features(
        self,
        graph: Any,
        algorithm: str,
        seed_set_sizes: Sequence[Optional[int]],
        config: Any = None,
    ) -> CostFeatures:
        """Extract the feature vector (``None`` sizes mark wildcard sets)."""
        num_nodes = graph.num_nodes
        total = sum(num_nodes if size is None else size for size in seed_set_sizes)
        labels = getattr(config, "labels", None) if config is not None else None
        if labels:
            reachable = sum(len(graph.edges_with_label(label)) for label in labels)
        else:
            reachable = graph.num_edges
        return CostFeatures(
            algorithm=algorithm,
            num_seed_sets=len(seed_set_sizes),
            total_seed_size=total,
            reachable_edges=reachable,
            delta_size=getattr(graph, "delta_size", 0),
            max_edges=getattr(config, "max_edges", None) if config is not None else None,
        )

    def estimate(self, features: CostFeatures) -> float:
        edges = max(0, features.reachable_edges) + max(0, features.delta_size)
        depth = 1.0 + 0.25 * min(features.max_edges, 64) if features.max_edges else 2.0
        return (
            self.weight(features.algorithm)
            * max(1, features.num_seed_sets)
            * (1.0 + max(0, features.total_seed_size))
            * (1.0 + math.log1p(edges))
            * depth
        )

    def estimate_ctp(
        self,
        graph: Any,
        algorithm: str,
        seed_set_sizes: Sequence[Optional[int]],
        config: Any = None,
    ) -> float:
        return self.estimate(self.features(graph, algorithm, seed_set_sizes, config))

    def fit(self, reports: Sequence["ScheduleReport"]) -> "CTPCostEstimator":
        """A recalibrated estimator, fitted offline against measured runs.

        Each :class:`ScheduleReport` pairs per-CTP estimates with the
        seconds those CTPs actually took (and, via ``algorithms``, which
        algorithm class ran).  The estimate is linear in its algorithm
        weight, so the least-squares weight per class has a closed form:
        with ``base_i = estimate_i / weight(algo_i)`` (the weight-free
        part of the estimate), the ``w`` minimizing
        ``sum((w * base_i - actual_i)^2)`` is
        ``sum(base_i * actual_i) / sum(base_i^2)``.

        Classes with no usable samples (no runs, or degenerate
        zero/negative measurements) keep their checked-in weight, as does
        any class whose fit collapses to a non-positive weight — the
        estimator's monotone/nonnegative invariants survive any input.
        Fitted weights carry seconds-per-cost-unit scale, so a fitted
        estimator's output approximates *seconds* on the measured host;
        the scheduler still only consumes ordering and ratios.
        """
        num: Dict[str, float] = {}
        den: Dict[str, float] = {}
        for report in reports:
            for algo, estimate, actual in zip(
                report.algorithms, report.estimates, report.actual_seconds
            ):
                if estimate <= 0.0 or actual <= 0.0:
                    continue
                base = estimate / self.weight(algo)
                num[algo] = num.get(algo, 0.0) + base * actual
                den[algo] = den.get(algo, 0.0) + base * base
        fitted = dict(self.weights)
        for algo, denominator in den.items():
            if denominator > 0.0:
                weight = num[algo] / denominator
                if weight > 0.0:
                    fitted[algo] = weight
        return CTPCostEstimator(weights=tuple(sorted(fitted.items())))


def choose_mode(
    total_cost: float,
    num_jobs: int,
    parallelism: int,
    pool: Any = None,
    pool_overhead: Optional[float] = None,
) -> str:
    """Resolve ``parallelism_mode="auto"`` to ``serial``/``thread``/``process``.

    ``serial`` when there is nothing to overlap (one job, one worker) or
    the whole query is estimated cheaper than thread-dispatch overhead;
    ``process`` when the estimated total clears the process-dispatch
    overhead — the warm threshold if a live warm :class:`WorkerPool` is
    passed (its :meth:`~repro.query.pool.WorkerPool.dispatch_overhead`
    supplies the bar), the cold one otherwise; ``thread`` in between.
    """
    if num_jobs <= 1 or parallelism <= 1 or total_cost < THREAD_DISPATCH_THRESHOLD:
        return "serial"
    if pool_overhead is None:
        if pool is not None and not pool.closed:
            pool_overhead = pool.dispatch_overhead()
        else:
            pool_overhead = PROCESS_COLD_THRESHOLD
    if total_cost >= pool_overhead:
        return "process"
    return "thread"


@dataclass
class ScheduleReport:
    """What the scheduler decided for one query — estimates vs. actuals.

    Threaded ``QueryResult.schedule`` → ``ResponseStats.schedule`` so a
    serving client can see *why* its query ran the way it did:
    per-CTP estimated cost next to the measured seconds, the longest-first
    submission order, how many deadline-budget rebalances fired (and how
    much wall budget they moved), and how many CTPs started before step
    (A) finished (pipeline overlap).
    """

    mode_requested: str = "thread"
    mode_selected: str = "serial"
    estimates: List[float] = field(default_factory=list)
    actual_seconds: List[float] = field(default_factory=list)
    #: Per-CTP algorithm class, aligned with ``estimates`` /
    #: ``actual_seconds`` — the pairing :meth:`CTPCostEstimator.fit`
    #: recalibrates against.
    algorithms: List[str] = field(default_factory=list)
    submit_order: List[int] = field(default_factory=list)
    rebalances: int = 0
    rebalanced_seconds: float = 0.0
    pipeline_overlaps: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode_requested": self.mode_requested,
            "mode_selected": self.mode_selected,
            "estimates": list(self.estimates),
            "actual_seconds": list(self.actual_seconds),
            "algorithms": list(self.algorithms),
            "submit_order": list(self.submit_order),
            "rebalances": self.rebalances,
            "rebalanced_seconds": self.rebalanced_seconds,
            "pipeline_overlaps": self.pipeline_overlaps,
        }


#: Smallest grant a ledger ever hands out (seconds).  A CTP built after
#: the query's deadline already passed still *runs* with this sliver, so
#: it returns an honestly-flagged ``timed_out`` partial set through the
#: normal engine path instead of needing a synthetic empty result.
LEDGER_FLOOR = 1e-6


class DeadlineLedger:
    """Wall-budget accounting for one deadline-bounded query.

    At job-build time each CTP gets a **build budget**: with ``workers``
    concurrent slots and cost estimates ``c_i``, CTP *i* may spend
    ``remaining * min(1, workers * c_i / sum(pending c))`` — cost-
    proportional shares that sum to the remaining deadline under serial
    dispatch (``workers=1``) and degenerate to the full remaining budget
    when every CTP has its own worker.  (Capping each CTP to what is left
    when its job is *built* — all at ~query start — lets a serial query
    with k deadline-hungry CTPs overshoot to ~k × deadline.)

    At **execution** time :meth:`grant` recomputes the fair share against
    the budget *actually* left and the CTPs *still pending*: a fast CTP
    that finished under its share leaves more wall per unit of pending
    cost, so a slow CTP picks up the slack.  Invariants (pinned by
    fake-clock tests): a grant is never below the CTP's build budget and
    never above its intrinsic per-CTP ``timeout``.

    ``clock`` is injectable (``repro.testing.FakeClock``) so rebalancing
    decisions are testable without wall-time flakiness.  Thread-safe:
    grants happen inside worker threads under thread dispatch.
    """

    def __init__(
        self,
        deadline: float,
        started: float,
        workers: int = 1,
        clock: Any = None,
    ) -> None:
        if deadline <= 0:
            raise ConfigError("DeadlineLedger needs a positive deadline")
        self.deadline = deadline
        self.started = started
        self.workers = max(1, workers)
        self.clock = clock if clock is not None else time.perf_counter
        self.rebalances = 0
        self.rebalanced_seconds = 0.0
        self._lock = threading.Lock()
        self._costs: Dict[int, float] = {}
        self._intrinsic: Dict[int, Optional[float]] = {}
        self._builds: Dict[int, float] = {}
        self._pending: Dict[int, float] = {}

    def remaining(self) -> float:
        """Query wall budget left right now (floored, never negative)."""
        return max(self.deadline - (self.clock() - self.started), LEDGER_FLOOR)

    def _share(self, cost: float, pending_total: float) -> float:
        if pending_total <= 0:
            return 1.0
        return min(1.0, self.workers * cost / pending_total)

    def prime(self, costs: Dict[int, float]) -> None:
        """Preload the full pending cost pool before any build budget.

        The barrier evaluator knows every CTP's estimate up front; priming
        makes the *first* :meth:`register` compute its share against the
        whole query's pending cost instead of only the CTPs registered so
        far (without it the first registration sees share = 1 and eats the
        entire remaining budget).  The pipelined path skips priming and
        registers incrementally — a documented heuristic: early CTPs see a
        smaller pending pool and so get generous shares, which is exactly
        the overlap case where budget is most plentiful.
        """
        with self._lock:
            for index, cost in costs.items():
                cost = max(0.0, cost)
                self._costs[index] = cost
                self._pending[index] = cost

    def register(self, index: int, cost: float, intrinsic_timeout: Optional[float]) -> float:
        """File CTP ``index`` and return its build budget (seconds).

        ``intrinsic_timeout`` is the CTP's own ``TIMEOUT`` filter (or the
        config/default timeout) *before* any deadline capping — the hard
        per-CTP ceiling no rebalance may exceed.  A cost already filed by
        :meth:`prime` is kept, not re-added.
        """
        with self._lock:
            if index in self._costs:
                cost = self._costs[index]
            else:
                cost = max(0.0, cost)
                self._costs[index] = cost
                self._pending[index] = cost
            self._intrinsic[index] = intrinsic_timeout
            pending_total = sum(self._pending.values())
            budget = self.remaining() * self._share(cost, pending_total)
            if intrinsic_timeout is not None:
                budget = min(budget, intrinsic_timeout)
            budget = max(budget, LEDGER_FLOOR)
            self._builds[index] = budget
            return budget

    def build_budget(self, index: int) -> float:
        return self._builds[index]

    def grant(self, index: int) -> float:
        """The budget CTP ``index`` may spend, measured at execution start.

        ``max(build budget, fair share of what is left now)``, capped by
        the intrinsic timeout.  Counts a rebalance when the grant exceeds
        the build budget by more than the floor.
        """
        with self._lock:
            build = self._builds[index]
            pending_total = sum(self._pending.values())
            fair = self.remaining() * self._share(self._costs[index], pending_total)
            granted = max(build, fair)
            intrinsic = self._intrinsic[index]
            if intrinsic is not None:
                granted = min(granted, intrinsic)
            granted = max(granted, build)  # the pinned invariant
            if granted > build + LEDGER_FLOOR:
                self.rebalances += 1
                self.rebalanced_seconds += granted - build
            return granted

    def settle(self, index: int) -> None:
        """Mark CTP ``index`` finished: its cost leaves the pending pool."""
        with self._lock:
            self._pending.pop(index, None)


class QuerySchedule:
    """One query's scheduling state, threaded through the dispatch layer.

    Bundles the per-CTP cost estimates (keyed by CTP index; a CTP without
    one counts as 0), the :class:`DeadlineLedger` of a deadline-bounded
    query (``None`` without a deadline) and the :class:`ScheduleReport`
    the serving layer surfaces.
    """

    def __init__(
        self,
        estimates: Optional[Dict[int, float]] = None,
        ledger: Optional[DeadlineLedger] = None,
    ) -> None:
        self.estimates: Dict[int, float] = dict(estimates or {})
        self.ledger = ledger
        self.report = ScheduleReport()

    def estimate(self, index: int) -> float:
        return self.estimates.get(index, 0.0)

    def ordered(self, groups: Sequence[Any], index_of: Any) -> List[Any]:
        """Longest-first (estimated), ties broken by CTP index (stable)."""
        return sorted(groups, key=lambda g: (-self.estimate(index_of(g)), index_of(g)))

    def record_submits(self, indices: Sequence[int]) -> None:
        self.report.submit_order.extend(indices)

    def config_for_run(self, job: Any) -> Any:
        """The config a dispatched job should actually run with.

        Applies the ledger's execution-time grant to the job's timeout;
        identical to the build config when there is no deadline or the
        grant equals the build budget.  The job's memo key was taken
        from its config before any budget was written into it — only
        complete, untruncated result sets are ever memoized, and those
        are budget-independent — so a regranted run files the same entry
        a deadline-free one would.
        """
        if self.ledger is None:
            return job.config
        granted = self.ledger.grant(job.index)
        if job.config.timeout is not None and abs(granted - job.config.timeout) <= LEDGER_FLOOR:
            return job.config
        return job.config.with_(timeout=granted)

    def settle(self, index: int) -> None:
        if self.ledger is not None:
            self.ledger.settle(index)

    def finalize(self, outcomes: Sequence[Any]) -> ScheduleReport:
        """Fold estimates, actuals, and ledger counters into the report."""
        self.report.estimates = [self.estimates.get(i, 0.0) for i in range(len(outcomes))]
        self.report.actual_seconds = [
            outcome.seconds if outcome is not None else 0.0 for outcome in outcomes
        ]
        if self.ledger is not None:
            self.report.rebalances = self.ledger.rebalances
            self.report.rebalanced_seconds = self.ledger.rebalanced_seconds
        return self.report
