"""Deadline shares for one query's CTPs, and what its dispatch reports.

The paper evaluates every CTP as an independent search and joins the
results (Section 3); how long one search takes is not known before it
runs ("Complexity of Evaluating GQL Queries").  So nothing here predicts
a cost.  Under ``SearchConfig.deadline`` a :class:`DeadlineLedger` gives
each pending CTP an equal share of the query's wall budget and re-grants
unspent budget from fast CTPs to still-pending slow ones at *execution*
time: measured work, not an estimate, moves budget.  A grant never drops
below the original build budget.  Dispatch starts leader jobs in CTP
order — the order the serial ledger is defined against.

:class:`QuerySchedule` threads the ledger through the dispatch layer and
folds what executed into the :class:`ScheduleReport` the serving layer
surfaces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError


@dataclass
class ScheduleReport:
    """How one query's CTPs ran: what executed them, for how long.

    Threaded ``QueryResult.schedule`` → ``ResponseStats.schedule`` so a
    serving client can see how its query ran: what executed its
    searches, the measured seconds per CTP, and how many deadline-budget
    rebalances fired (and how much wall budget they moved).

    ``mode_selected`` is read off the outcomes once dispatch has run: the
    stamp its executed CTPs carry (``"process"``, ``"serial"``, or the
    fallback hop ``"process->serial"``), ``"memo"`` when every CTP
    was served from the memo.
    """

    mode_selected: str = "serial"
    actual_seconds: List[float] = field(default_factory=list)
    rebalances: int = 0
    rebalanced_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode_selected": self.mode_selected,
            "actual_seconds": list(self.actual_seconds),
            "rebalances": self.rebalances,
            "rebalanced_seconds": self.rebalanced_seconds,
        }


#: Smallest grant a ledger ever hands out (seconds).  A CTP built after
#: the query's deadline already passed still *runs* with this sliver, so
#: it returns an honestly-flagged ``timed_out`` partial set through the
#: normal engine path instead of needing a synthetic empty result.
LEDGER_FLOOR = 1e-6


class DeadlineLedger:
    """Wall-budget accounting for one deadline-bounded query.

    The ledger is built with the indices of every CTP of the query, all
    pending.  At job-build time each CTP gets a **build budget**: with
    ``workers`` concurrent slots, a CTP may spend
    ``remaining * min(1, workers / len(pending))`` — equal shares that sum
    to the remaining deadline under serial dispatch (``workers=1``) and
    degenerate to the full remaining budget when every CTP has its own
    worker.  (Capping each CTP to what is left when its job is *built* —
    all at ~query start — lets a serial query with k deadline-hungry CTPs
    overshoot to ~k × deadline.)

    At **execution** time :meth:`grant` recomputes the fair share against
    the budget *actually* left and the CTPs *still pending*: a fast CTP
    that finished under its share leaves more wall per pending CTP, so a
    slow CTP picks up the slack.  Invariants (pinned by fake-clock
    tests): a grant is never below the CTP's build budget and never above
    its intrinsic per-CTP ``timeout``.

    ``clock`` is injectable (``repro.testing.FakeClock``) so rebalancing
    decisions are testable without wall-time flakiness.  Locked: grants
    run on the calling thread, but :meth:`settle` runs from pool-future
    done-callbacks, on the executor's own thread.
    """

    def __init__(
        self,
        deadline: float,
        started: float,
        indices: Sequence[int],
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
        self._intrinsic: Dict[int, Optional[float]] = {}
        self._builds: Dict[int, float] = {}
        self._pending = set(indices)

    def remaining(self) -> float:
        """Query wall budget left right now (floored, never negative)."""
        return max(self.deadline - (self.clock() - self.started), LEDGER_FLOOR)

    def _share(self) -> float:
        """This moment's fair share: ``remaining * min(1, workers / pending)``."""
        return self.remaining() * min(1.0, self.workers / max(1, len(self._pending)))

    def register(self, index: int, intrinsic_timeout: Optional[float]) -> float:
        """Return CTP ``index``'s build budget (seconds).

        ``intrinsic_timeout`` is the CTP's own ``TIMEOUT`` filter (or the
        config/default timeout) *before* any deadline capping — the hard
        per-CTP ceiling no rebalance may exceed.
        """
        with self._lock:
            self._intrinsic[index] = intrinsic_timeout
            budget = self._share()
            if intrinsic_timeout is not None:
                budget = min(budget, intrinsic_timeout)
            budget = max(budget, LEDGER_FLOOR)
            self._builds[index] = budget
            return budget

    def grant(self, index: int) -> float:
        """The budget CTP ``index`` may spend, measured at execution start.

        ``max(build budget, fair share of what is left now)``, capped by
        the intrinsic timeout.  Counts a rebalance when the grant exceeds
        the build budget by more than the floor.
        """
        with self._lock:
            build = self._builds[index]
            granted = max(build, self._share())
            intrinsic = self._intrinsic[index]
            if intrinsic is not None:
                granted = min(granted, intrinsic)
            granted = max(granted, build)  # the pinned invariant
            if granted > build + LEDGER_FLOOR:
                self.rebalances += 1
                self.rebalanced_seconds += granted - build
            return granted

    def settle(self, index: int) -> None:
        """Mark CTP ``index`` finished: it leaves the pending pool."""
        with self._lock:
            self._pending.discard(index)

    def recut_serial(self, indices: Sequence[int]) -> Dict[int, float]:
        """Re-cut the build budgets of CTPs ``indices`` for one slot.

        For CTPs about to run back to back after budgets were cut for
        concurrent slots (a dispatch that gave up on its pool): each is
        pending again and gets its equal share of what is left now, so the
        shares sum to the remaining deadline.  The intrinsic timeout
        recorded at :meth:`register` stays the ceiling.
        """
        with self._lock:
            self.workers = 1
            self._pending.update(indices)
        return {index: self.register(index, self._intrinsic[index]) for index in indices}


class QuerySchedule:
    """One query's scheduling state, threaded through the dispatch layer.

    Bundles the :class:`DeadlineLedger` of a deadline-bounded query
    (``None`` without a deadline) and the :class:`ScheduleReport` the
    serving layer surfaces.
    """

    def __init__(self, ledger: Optional[DeadlineLedger] = None) -> None:
        self.ledger = ledger
        self.report = ScheduleReport()

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

    def recut_serial(self, jobs: Sequence[Any]) -> None:
        """Give ``jobs`` the budgets of one slot before they run inline
        (:meth:`DeadlineLedger.recut_serial`); a no-op without a deadline."""
        if self.ledger is None:
            return
        budgets = self.ledger.recut_serial([job.index for job in jobs])
        for job in jobs:
            job.config = job.config.with_(timeout=budgets[job.index])

    def finalize(self, outcomes: Sequence[Any]) -> ScheduleReport:
        """Fold the executed mode, actuals and ledger counters into the
        report."""
        executed = [o.mode for o in outcomes if o is not None and o.mode != "memo"]
        if executed or outcomes:
            self.report.mode_selected = executed[0] if executed else "memo"
        self.report.actual_seconds = [
            outcome.seconds if outcome is not None else 0.0 for outcome in outcomes
        ]
        if self.ledger is not None:
            self.report.rebalances = self.ledger.rebalances
            self.report.rebalanced_seconds = self.ledger.rebalanced_seconds
        return self.report
