"""Deadline shares for one query's CTPs: the :class:`DeadlineLedger`.

The paper evaluates every CTP as an independent search and joins the
results (Section 3); how long one search takes is not known before it
runs ("Complexity of Evaluating GQL Queries").  So nothing here predicts
a cost.  Under ``SearchConfig.deadline`` the ledger gives each pending
CTP an equal share of the query's wall budget and re-grants unspent
budget from fast CTPs to still-pending slow ones at *execution* time:
measured work, not an estimate, moves budget.  A grant never drops below
the original build budget.  Dispatch starts leader jobs in CTP order —
the order the serial ledger is defined against.

Every query holds one ledger, threaded through the dispatch layer; a
query without a deadline holds the deadline-free ledger
(``DeadlineLedger(None, ...)``), which hands every job its config as
built.  What ran is recorded where it ran: each CTP's mode and seconds
on its ``CTPReport``, the ledger's rebalance counters on the
``QueryResult``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigError


#: Smallest grant a ledger ever hands out (seconds).  A CTP built after
#: the query's deadline already passed still *runs* with this sliver, so
#: it returns an honestly-flagged ``timed_out`` partial set through the
#: normal engine path instead of needing a synthetic empty result.
LEDGER_FLOOR = 1e-6


class DeadlineLedger:
    """Wall-budget accounting for one query's CTPs.

    The ledger is built with the indices of every CTP of the query, all
    pending.  ``deadline=None`` is the deadline-free ledger: it moves no
    budget, and :meth:`config_for` hands every job its config as built.

    Under a deadline, each CTP gets a **build budget** at job-build time
    (:meth:`register`): with ``workers`` concurrent slots, a CTP may spend
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
        deadline: Optional[float] = None,
        started: float = 0.0,
        indices: Sequence[int] = (),
        workers: int = 1,
        clock: Any = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
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

    def config_for(self, job: Any) -> Any:
        """The config a dispatched job should actually run with.

        Applies the execution-time :meth:`grant` to the job's timeout;
        ``job.config`` itself when there is no deadline or the grant
        equals the build budget.  The job's memo key was taken from its
        config before any budget was written into it — only complete,
        untruncated result sets are ever memoized, and those are
        budget-independent — so a regranted run files the same entry a
        deadline-free one would.
        """
        if self.deadline is None:
            return job.config
        granted = self.grant(job.index)
        if job.config.timeout is not None and abs(granted - job.config.timeout) <= LEDGER_FLOOR:
            return job.config
        return job.config.with_(timeout=granted)

    def settle(self, index: int) -> None:
        """Mark CTP ``index`` finished: it leaves the pending pool."""
        with self._lock:
            self._pending.discard(index)

    def recut_serial(self, jobs: Sequence[Any]) -> None:
        """Re-cut the budgets of ``jobs`` for one slot, in their configs.

        For CTPs about to run back to back after budgets were cut for
        concurrent slots (a dispatch that gave up on its pool): each is
        pending again and gets its equal share of what is left now, so the
        shares sum to the remaining deadline.  The intrinsic timeout
        recorded at :meth:`register` stays the ceiling.  A no-op without
        a deadline.
        """
        if self.deadline is None:
            return
        with self._lock:
            self.workers = 1
            self._pending.update(job.index for job in jobs)
        for job in jobs:
            budget = self.register(job.index, self._intrinsic[job.index])
            job.config = job.config.with_(timeout=budget)
