"""Fault injection and the self-healing serving stack.

Layers:

* **fault plan units** — seeded :class:`~repro.faults.FaultPlan` firing
  rules (``at``/``every``/``probability``), epoch gating, and the
  injectable effects (scorer raise, ballast, corrupted snapshot copy);
* **policy units** — :class:`~repro.query.resilience.RetryPolicy`
  (retryable classes, attempt budget, deadline-budget refusal, seeded
  jitter) and :class:`~repro.query.resilience.CircuitBreaker` (the
  closed/open/half-open machine, driven by an injected clock);
* **recovery integration** — every injectable fault class driven through
  the real pooled dispatch (and the query server): each request returns
  rows bit-identical to serial or a typed error, never a silently wrong
  answer;
* **degradation chain** — process → serial under injected faults,
  across every registered algorithm, with the hop recorded in
  ``CTPReport.dispatch_mode``;
* **serving hygiene** — priority load shedding, graceful drain, typed
  :class:`~repro.errors.PoolClosedError` after close, bounded ping.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from repro import faults
from repro.ctp.config import SearchConfig
from repro.ctp.registry import ALGORITHMS
from repro.errors import (
    ConfigError,
    FaultInjected,
    PoolClosedError,
    PoolError,
    SnapshotError,
    ValidationError,
    WorkerHangError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.graph.snapshot import save_snapshot
from repro.query import parallel
from repro.query.costmodel import DeadlineLedger
from repro.query.evaluator import evaluate_query
from repro.query.pool import WorkerPool
from repro.query.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PoolResilienceConfig,
    ResilienceReport,
    RetryPolicy,
)
from repro.testing import FakeClock
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    QueryRequest,
    QueryServer,
)

MATRIX_QUERY = """
SELECT ?x ?w1 ?w2 ?w3 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
  CONNECT(?x, "France") AS ?w3 MAX 3
}
"""


@pytest.fixture(autouse=True)
def _clean_faults():
    """No test leaks an installed plan into its neighbours."""
    yield
    faults.clear_plan()


def _serial(fig1, algo: str = "molesp"):
    return evaluate_query(fig1, MATRIX_QUERY, algorithm=algo, base_config=SearchConfig())


# ----------------------------------------------------------------------
# fault plan units
# ----------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(kind="meteor")
    with pytest.raises(ConfigError):
        FaultSpec(kind="crash", site="nowhere")
    # corrupt_snapshot is a load-site fault, and the load site takes
    # nothing else (there is no worker evaluation to crash there).
    with pytest.raises(ConfigError):
        FaultSpec(kind="corrupt_snapshot", site=faults.SITE_WORKER_RUN)
    with pytest.raises(ConfigError):
        FaultSpec.crash(site=faults.SITE_SNAPSHOT_LOAD)
    with pytest.raises(ConfigError):
        FaultSpec.crash(probability=1.5)
    with pytest.raises(ConfigError):
        FaultSpec.crash(every=0)


def test_fault_plan_firing_rules():
    plan = FaultPlan(
        specs=(
            FaultSpec.scorer(at=(0, 2)),
            FaultSpec.slow(every=3),
            FaultSpec.rss(epochs=(1,)),
        )
    )
    site = faults.SITE_WORKER_RUN
    # ``at`` fires exactly on the listed counters.
    assert [s.kind for s in plan.active_specs(site, 0, 0)] == ["scorer", "slow"]
    assert [s.kind for s in plan.active_specs(site, 1, 0)] == []
    assert [s.kind for s in plan.active_specs(site, 2, 0)] == ["scorer"]
    assert [s.kind for s in plan.active_specs(site, 3, 0)] == ["slow"]
    # epoch gating: the rss spec only exists for worker generation 1.
    assert [s.kind for s in plan.active_specs(site, 1, 1)] == ["rss"]


def test_fault_plan_probability_is_seeded():
    plan_a = FaultPlan(specs=(FaultSpec.scorer(probability=0.5),), seed=42)
    plan_b = FaultPlan(specs=(FaultSpec.scorer(probability=0.5),), seed=42)
    site = faults.SITE_WORKER_RUN
    fired_a = [bool(plan_a.active_specs(site, c, 0)) for c in range(64)]
    fired_b = [bool(plan_b.active_specs(site, c, 0)) for c in range(64)]
    assert fired_a == fired_b  # same seed, same chaos
    assert any(fired_a) and not all(fired_a)  # an actual coin, not a constant


def test_inject_is_noop_without_plan_and_counts_with_one():
    faults.inject(faults.SITE_WORKER_RUN)  # no plan: returns silently
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(1,)),)))
    faults.inject(faults.SITE_WORKER_RUN)  # counter 0: spec not armed
    with pytest.raises(FaultInjected):
        faults.inject(faults.SITE_WORKER_RUN)  # counter 1
    # Re-installing resets the counters — a fresh deterministic run.
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(1,)),)))
    faults.inject(faults.SITE_WORKER_RUN)


def test_corrupted_snapshot_copy_trips_real_validation(fig1, tmp_path):
    from repro.graph.snapshot import load_snapshot

    path = save_snapshot(fig1, tmp_path / "fig1.snapshot")
    faults.install_plan(FaultPlan(specs=(FaultSpec.corrupt_snapshot(at=(0,)),)))
    with pytest.raises(SnapshotError):
        load_snapshot(path)
    # The next load (counter 1) is clean — and identical to the original.
    clean = load_snapshot(path)
    assert clean.num_nodes == fig1.freeze().num_nodes
    faults.clear_plan()
    # The truncated copy is pid-tagged like an auto-snapshot so the
    # stale-snapshot reaper owns its cleanup; drop it eagerly here.
    import glob
    import tempfile

    for leftover in glob.glob(
        os.path.join(tempfile.gettempdir(), f"repro-csr-{os.getpid()}-fault*")
    ):
        os.unlink(leftover)


# ----------------------------------------------------------------------
# policy units
# ----------------------------------------------------------------------
def test_retry_policy_retryable_classes():
    policy = RetryPolicy()
    assert policy.is_retryable(BrokenProcessPool("boom"))
    assert policy.is_retryable(WorkerHangError("wedged"))
    assert policy.is_retryable(OSError("fork failed"))
    # Deterministic user-code errors would fail identically on retry.
    assert not policy.is_retryable(FaultInjected("scorer"))
    assert not policy.is_retryable(ValueError("bad"))


def test_retry_policy_attempt_and_budget_limits():
    policy = RetryPolicy(max_attempts=3, base_backoff=0.2, jitter=0.0)
    error = BrokenProcessPool("boom")
    assert policy.should_retry(1, error)
    assert policy.should_retry(2, error)
    assert not policy.should_retry(3, error)  # attempts exhausted
    assert not policy.should_retry(1, FaultInjected("scorer"))
    # A backoff that would overrun the per-CTP budget is refused.
    backoff = policy.backoff_seconds(1)
    assert not policy.should_retry(1, error, elapsed=0.5, budget=0.6, backoff=backoff)
    assert policy.should_retry(1, error, elapsed=0.1, budget=0.6, backoff=backoff)
    with pytest.raises(TypeError):  # a budget check that never saw the wait
        policy.should_retry(1, error, elapsed=0.1, budget=0.6)


def test_retry_policy_backoff_schedule_and_seeded_jitter():
    exact = RetryPolicy(base_backoff=0.02, multiplier=2.0, max_backoff=0.05, jitter=0.0)
    assert exact.backoff_seconds(1) == pytest.approx(0.02)
    assert exact.backoff_seconds(2) == pytest.approx(0.04)
    assert exact.backoff_seconds(3) == pytest.approx(0.05)  # capped
    seeded = RetryPolicy(seed=7)
    waits_a = [seeded.backoff_seconds(k, seeded.rng()) for k in (1, 2, 3)]
    waits_b = [seeded.backoff_seconds(k, seeded.rng()) for k in (1, 2, 3)]
    assert waits_a == waits_b  # pinning the seed pins the chaos run
    base = RetryPolicy().base_backoff
    assert base * 0.5 <= waits_a[0] <= base * 1.5  # jitter=0.5 band


class _BrokenPool:
    """A pool stand-in whose executor is broken at every submit."""

    def __init__(self):
        self.breaker = CircuitBreaker()
        self.retry_policy = RetryPolicy()  # unseeded jitter, as served
        self.resilience = PoolResilienceConfig()

    def _resolve(self, graph):
        return SimpleNamespace(delta=None)

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("boom")

    def respawn(self):
        pass


def test_approved_retry_sleeps_within_the_budget(fig1, fig1_seeds, monkeypatch):
    # A 20 ms budget sits inside attempt 1's 10-30 ms jitter band: the
    # backoff the retry check approves must be the one slept, or about a
    # quarter of these dispatches sleep past the budget.
    budget = 0.02
    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    job = parallel.CTPJob(0, list(fig1_seeds), SearchConfig(timeout=budget))
    for _ in range(200):
        dispatch = parallel._PooledDispatch(
            _BrokenPool(), fig1, "molesp", None, ResilienceReport(), DeadlineLedger()
        )
        assert dispatch.run([job])[0].mode == "process->serial"
    assert waits  # some retries were approved
    assert max(waits) < budget


def test_circuit_breaker_state_machine():
    now = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=lambda: now[0])
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN and breaker.trips == 1
    assert not breaker.allow()
    now[0] = 10.0  # cooldown elapsed: half-open admits one probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()
    assert not breaker.allow()  # probe budget spent, rest stay degraded
    breaker.record_failure()  # the probe failed: straight back to open
    assert breaker.state == BREAKER_OPEN and breaker.trips == 2
    now[0] = 20.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED and breaker.allow()


def test_pool_resilience_config_validation():
    with pytest.raises(ConfigError):
        PoolResilienceConfig(recycle_after=0)
    with pytest.raises(ConfigError):
        PoolResilienceConfig(max_worker_rss_mb=-1.0)
    with pytest.raises(ConfigError):
        PoolResilienceConfig(hang_timeout=0.0)


# ----------------------------------------------------------------------
# recovery integration: every fault class through the real dispatch
# ----------------------------------------------------------------------
def test_pool_recovers_from_injected_crash(fig1):
    serial = _serial(fig1)
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(at=(0,), epochs=(0,)),)))
    with WorkerPool(fig1, workers=2) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert result.rows == serial.rows
        assert [r.dispatch_mode for r in result.ctp_reports] == ["process", "process", "memo"]
        assert result.resilience.retries == 1
        assert result.resilience.respawns == 1
        assert pool.respawns == 1
        assert pool.breaker.state == BREAKER_CLOSED  # final success reset it


def test_pool_recovers_from_corrupt_snapshot(fig1):
    serial = _serial(fig1)
    # The epoch-0 worker initializer loads a truncated snapshot copy and
    # dies on the format's real validation; the respawned epoch-1 workers
    # load clean and the retried fan-out succeeds.
    faults.install_plan(
        FaultPlan(specs=(FaultSpec.corrupt_snapshot(at=(0,), epochs=(0,)),))
    )
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert result.rows == serial.rows
        assert result.resilience.retries == 1
        assert pool.respawns == 1


def test_hang_watchdog_kills_and_degrades_honestly(fig1):
    serial = _serial(fig1)
    faults.install_plan(
        FaultPlan(specs=(FaultSpec.hang(seconds=60.0, at=(0,), epochs=(0,)),))
    )
    resilience = PoolResilienceConfig(hang_grace=0.3)
    with WorkerPool(fig1, workers=1, resilience=resilience) as pool:
        config = SearchConfig(parallelism=2, timeout=0.5)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        # The watchdog (sum of CTP timeouts + grace) fired, the wedged
        # worker was kill-respawned, and — the hung attempt having spent
        # the budget a retry would need — dispatch degraded to inline,
        # stamping the hop.  The rows are still exactly serial's.
        assert result.rows == serial.rows
        assert result.resilience.hangs == 1
        assert pool.hangs == 1
        assert [r.dispatch_mode for r in result.ctp_reports] == [
            "process->serial",
            "process->serial",
            "memo",
        ]


def test_scorer_fault_is_a_typed_error_never_wrong_rows(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=2)
        with pytest.raises(FaultInjected):
            evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        # Not retried, not degraded, breaker not charged: a deterministic
        # evaluation error is the caller's to see.
        assert pool.respawns == 0
        assert pool.breaker.state == BREAKER_CLOSED


def test_recycling_after_request_threshold(fig1):
    serial = _serial(fig1)
    resilience = PoolResilienceConfig(recycle_after=1)
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1, resilience=resilience) as pool:
        first = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.recycles == 0  # recycling happens BETWEEN queries
        second = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.recycles >= 1
        assert first.rows == serial.rows and second.rows == serial.rows


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="RSS recycling reads procfs"
)
def test_recycling_on_rss_growth(fig1):
    serial = _serial(fig1)
    # Every epoch-0 run retains 32 MiB of ballast; the sampled RSS check
    # recycles the bloated worker at the next dispatch boundary.
    faults.install_plan(FaultPlan(specs=(FaultSpec.rss(grow_mb=32.0, every=1),)))
    resilience = PoolResilienceConfig(max_worker_rss_mb=64.0, rss_check_every=1)
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1, resilience=resilience) as pool:
        evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.recycles >= 1
        assert result.rows == serial.rows


# ----------------------------------------------------------------------
# degradation chain: process -> serial, every algorithm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_degradation_chain_under_crash_faults(fig1, algo):
    """Unrecoverable crashes walk process -> serial, rows stay serial's."""
    serial = _serial(fig1, algo)
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(every=1),)))
    policy = RetryPolicy(max_attempts=1)  # first failure is final
    breaker = CircuitBreaker(failure_threshold=100)  # isolate the hop logic
    with WorkerPool(fig1, workers=1, retry_policy=policy, breaker=breaker) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(
            fig1, MATRIX_QUERY, algorithm=algo, base_config=config, pool=pool
        )
    assert result.columns == serial.columns
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == [
        "process->serial",
        "process->serial",
        "memo",
    ]
    assert result.resilience.degraded_to == "serial"


def test_degradation_chain_reaches_serial(fig1):
    """With one worker of parallelism the hop is the same: inline."""
    serial = _serial(fig1)
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(every=1),)))
    with WorkerPool(fig1, workers=1, retry_policy=RetryPolicy(max_attempts=1)) as pool:
        config = SearchConfig(parallelism=1)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == [
        "process->serial",
        "process->serial",
        "memo",
    ]
    assert result.resilience.degraded_to == "serial"


def test_open_breaker_degrades_without_touching_the_pool(fig1):
    serial = _serial(fig1)
    breaker = CircuitBreaker(failure_threshold=1, cooldown=3600.0)
    breaker.record_failure()  # trip it open for the whole test
    with WorkerPool(fig1, workers=2, breaker=breaker) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.dispatches == 0  # the open breaker spared the pool
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == [
        "process->serial",
        "process->serial",
        "memo",
    ]
    assert result.resilience.breaker_skips == 1
    assert pool.breaker.state == BREAKER_OPEN


def test_breaker_trips_then_half_open_probe_recovers(fig1):
    serial = _serial(fig1)
    # Crashes span two worker generations: request 1 burns both attempts
    # (2 failures -> open), request 2 is breaker-skipped, and after the
    # cooldown the half-open probe finds clean epoch-2 workers.
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(every=1, epochs=(0, 1)),)))
    breaker = CircuitBreaker(failure_threshold=2, cooldown=0.1)
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1, breaker=breaker) as pool:
        first = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert first.rows == serial.rows
        assert first.resilience.degraded_to == "serial"
        assert breaker.state == BREAKER_OPEN and breaker.trips == 1
        second = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert second.rows == serial.rows
        assert second.resilience.breaker_skips == 1
        time.sleep(0.15)  # cooldown: the next dispatch is the probe
        third = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert third.rows == serial.rows
        assert [r.dispatch_mode for r in third.ctp_reports] == ["process", "process", "memo"]
        assert breaker.state == BREAKER_CLOSED


@pytest.mark.parametrize("probe", ["unpicklable", "evaluation-error"])
def test_half_open_probe_without_a_pool_verdict_is_handed_back(fig1, probe):
    """A probe dispatch that ends without learning anything about the pool
    must not leave the breaker half-open with no probe left to admit."""
    serial = _serial(fig1)
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(2.0)  # cooldown over: the next dispatch is the half-open probe
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1, breaker=breaker) as pool:
        if probe == "unpicklable":
            score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
            first = evaluate_query(
                fig1, MATRIX_QUERY, base_config=config.with_(score=score), pool=pool
            )
            assert {r.dispatch_mode for r in first.ctp_reports} == {"process->serial", "memo"}
        else:
            faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
            with pytest.raises(FaultInjected):
                evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert breaker.state == BREAKER_HALF_OPEN
        clock.advance(1000.0)
        healthy = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert healthy.rows == serial.rows
        assert healthy.resilience.breaker_skips == 0  # admitted, not refused
        assert [r.dispatch_mode for r in healthy.ctp_reports] == ["process", "process", "memo"]
        assert breaker.state == BREAKER_CLOSED


# ----------------------------------------------------------------------
# serving: shedding, drain, typed close, bounded ping
# ----------------------------------------------------------------------
def test_low_priority_requests_shed_under_pressure(fig1):
    with QueryServer(fig1, max_pending=4, shed_threshold=1) as server:
        # Synthetic pressure: the gauge reads one in-flight request.
        with server._gauge_lock:
            server._pending = 1
        low = server.handle(QueryRequest(query=MATRIX_QUERY, priority=PRIORITY_LOW))
        assert low.status == STATUS_SHED and "shed" in low.error
        high = server.handle(QueryRequest(query=MATRIX_QUERY, priority=PRIORITY_HIGH))
        assert high.status == STATUS_OK  # priorities above LOW still admitted
        with server._gauge_lock:
            server._pending = 0
        relieved = server.handle(QueryRequest(query=MATRIX_QUERY, priority=PRIORITY_LOW))
        assert relieved.status == STATUS_OK
        assert server.shed == 1


def test_request_priority_is_validated():
    with pytest.raises(ValidationError):
        QueryRequest(query="SELECT ?x WHERE { }", priority=7)


def test_drain_finishes_in_flight_then_closes(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.slow(seconds=0.3, every=1),)))
    server = QueryServer(fig1, workers=1, max_pending=4)
    responses = []
    worker = threading.Thread(
        target=lambda: responses.append(server.handle(QueryRequest(query=MATRIX_QUERY)))
    )
    worker.start()
    deadline = time.time() + 10.0
    while server._pending == 0 and time.time() < deadline:
        time.sleep(0.005)  # wait for the request to be admitted
    assert server.drain(timeout=30.0)  # in-flight request ran to completion
    worker.join(timeout=30.0)
    assert server.closed and server.draining
    assert responses and responses[0].status == STATUS_OK
    late = server.handle(QueryRequest(query=MATRIX_QUERY))
    assert late.status == STATUS_REJECTED


def test_drain_timeout_still_closes(fig1):
    server = QueryServer(fig1, max_pending=2)
    with server._gauge_lock:
        server._pending = 1  # a request that never finishes
    assert server.drain(timeout=0.05) is False
    assert server.closed


def test_pool_closed_error_is_typed(fig1):
    pool = WorkerPool(fig1, workers=1)
    pool.close()
    with pytest.raises(PoolClosedError):
        pool.submit("molesp", [(0,)], SearchConfig())
    with pytest.raises(PoolClosedError):
        pool.ping()
    with pytest.raises(PoolClosedError):
        pool.respawn()
    assert issubclass(PoolClosedError, PoolError)  # old handlers keep working
    assert not pool.healthy()  # boolean form stays boolean
    pool.close()  # idempotent


def test_ping_default_timeout_is_bounded():
    for method in (WorkerPool.ping, WorkerPool.healthy):
        default = inspect.signature(method).parameters["timeout"].default
        assert default <= 5.0, f"{method.__name__} must fail fast, got {default}s"


def test_server_reports_resilience_telemetry(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(at=(0,), epochs=(0,)),)))
    with QueryServer(fig1, workers=1, max_pending=4) as server:
        response = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert response.status == STATUS_OK
        assert response.stats.retries == 1
        assert response.stats.dispatch_modes == ["process", "process", "memo"]
        stats = server.stats()
        assert stats["pool"]["respawns"] == 1
        assert stats["pool"]["breaker_state"] == BREAKER_CLOSED
        assert stats["pool"]["recycles"] == 0


def test_server_scorer_fault_surfaces_as_error_status(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
    with QueryServer(fig1, workers=1, max_pending=4) as server:
        first = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert first.status == STATUS_ERROR
        assert "injected scorer failure" in first.error
        second = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert second.status == STATUS_OK  # the fault was one-shot; no restart needed
        assert server.errors == 1
