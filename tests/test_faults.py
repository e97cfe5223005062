"""Fault injection and the self-healing serving stack.

Layers:

* **fault plan units** — seeded :class:`~repro.faults.FaultPlan` firing
  rules (``at``/``every``/``probability``), epoch gating, and the
  injectable effects (scorer raise, ballast, corrupted snapshot copy);
* **the failure rule** — a fan-out the pool fails (crash, hang, corrupt
  snapshot) tears the workers down, runs inline with the hop stamped,
  and the *next* request runs on fresh workers; nothing is retried and
  nothing sleeps;
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
)
from repro.faults import FaultPlan, FaultSpec
from repro.graph.snapshot import save_snapshot
from repro.query import parallel
from repro.query.costmodel import DeadlineLedger
from repro.query.evaluator import evaluate_query
from repro.query.pool import WorkerPool
from repro.query.resilience import PoolResilienceConfig, ResilienceReport
from repro.testing import fallback_pool
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
# the failure rule
# ----------------------------------------------------------------------
def test_broken_pool_fan_out_runs_inline_once_and_tears_down(fig1, fig1_seeds, monkeypatch):
    sleeps, submits = [], []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    job = parallel.CTPJob(0, list(fig1_seeds), SearchConfig())
    inline = parallel._local_dispatch(fig1, "molesp", None, DeadlineLedger()).run([job])
    with WorkerPool(fig1, workers=1) as pool:

        def broken_submit(*args, **kwargs):
            submits.append(args)
            raise BrokenProcessPool("boom")

        monkeypatch.setattr(pool, "submit", broken_submit)
        report = ResilienceReport()
        outcomes = parallel._PooledDispatch(
            pool, fig1, "molesp", None, report, DeadlineLedger()
        ).run([job])
        assert [outcome.mode for outcome in outcomes] == ["process->serial"]
        assert outcomes[0].result_set.edge_sets() == inline[0].result_set.edge_sets()
        assert sleeps == [] and len(submits) == 1
        assert pool._executor is None  # the next dispatch builds fresh workers
        assert pool.respawns == report.respawns == 1
        assert report.degraded_to == "serial" and report.hangs == pool.hangs == 0


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
INLINE_MODES = ["process->serial", "process->serial", "memo"]
POOLED_MODES = ["process", "process", "memo"]


def test_pool_recovers_from_injected_crash(fig1):
    serial = _serial(fig1)
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(at=(0,), epochs=(0,)),)))
    with WorkerPool(fig1, workers=2) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert result.rows == serial.rows
        assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
        assert result.resilience.respawns == 1
        assert pool.respawns == 1
        # The next request spawns clean epoch-1 workers.
        again = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert again.rows == serial.rows
        assert [r.dispatch_mode for r in again.ctp_reports] == POOLED_MODES
        assert pool.respawns == 1


def test_pool_recovers_from_corrupt_snapshot(fig1):
    serial = _serial(fig1)
    # The epoch-0 worker initializer loads a truncated snapshot copy and
    # dies on the format's real validation: the fan-out runs inline, and
    # the next request's epoch-1 workers load clean.
    faults.install_plan(
        FaultPlan(specs=(FaultSpec.corrupt_snapshot(at=(0,), epochs=(0,)),))
    )
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert result.rows == serial.rows
        assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
        assert pool.respawns == 1
        again = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert again.rows == serial.rows
        assert [r.dispatch_mode for r in again.ctp_reports] == POOLED_MODES
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
        # worker was killed, and the fan-out ran inline, stamping the hop.
        # The rows are still exactly serial's.
        assert result.rows == serial.rows
        assert result.resilience.hangs == result.resilience.respawns == 1
        assert pool.hangs == pool.respawns == 1
        assert pool._executor is None
        assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES


def test_scorer_fault_is_a_typed_error_never_wrong_rows(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=2)
        with pytest.raises(FaultInjected):
            evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        # Not re-run, not degraded, workers kept: a deterministic
        # evaluation error is the caller's to see.
        assert pool.respawns == 0


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
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(
            fig1, MATRIX_QUERY, algorithm=algo, base_config=config, pool=pool
        )
    assert result.columns == serial.columns
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
    assert result.resilience.degraded_to == "serial"


def test_degradation_chain_reaches_serial(fig1):
    """With one worker of parallelism the hop is the same: inline."""
    serial = _serial(fig1)
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(every=1),)))
    with WorkerPool(fig1, workers=1) as pool:
        config = SearchConfig(parallelism=1)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
    assert result.resilience.degraded_to == "serial"


def test_unpreparable_pool_degrades_without_spawning(fig1):
    serial = _serial(fig1)
    with fallback_pool(fig1, 2) as pool:
        config = SearchConfig(parallelism=2)
        result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.dispatches == pool.respawns == 0
        assert pool._executor is None and pool.snapshot_path is None
    assert result.rows == serial.rows
    assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
    assert result.resilience.degraded_to == "serial"


def test_crash_storm_runs_inline_then_recovers(fig1):
    serial = _serial(fig1)
    # Crashes span two worker generations: requests 1 and 2 each run
    # inline and tear their workers down; request 3 finds clean epoch-2
    # workers.
    faults.install_plan(FaultPlan(specs=(FaultSpec.crash(every=1, epochs=(0, 1)),)))
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1) as pool:
        for respawns in (1, 2):
            result = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
            assert result.rows == serial.rows
            assert [r.dispatch_mode for r in result.ctp_reports] == INLINE_MODES
            assert pool.respawns == respawns and pool._executor is None
        third = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert third.rows == serial.rows
        assert [r.dispatch_mode for r in third.ctp_reports] == POOLED_MODES
        assert pool.respawns == 2


@pytest.mark.parametrize("cause", ["unpicklable", "evaluation-error"])
def test_failure_outside_the_pool_keeps_the_workers(fig1, cause):
    """A dispatch that fails for a reason the workers are not to blame for
    leaves them up: the next request runs on the same pool."""
    serial = _serial(fig1)
    config = SearchConfig(parallelism=2)
    with WorkerPool(fig1, workers=1) as pool:
        if cause == "unpicklable":
            score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
            first = evaluate_query(
                fig1, MATRIX_QUERY, base_config=config.with_(score=score), pool=pool
            )
            assert {r.dispatch_mode for r in first.ctp_reports} == {"process->serial", "memo"}
        else:
            faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
            with pytest.raises(FaultInjected):
                evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert pool.respawns == 0
        healthy = evaluate_query(fig1, MATRIX_QUERY, base_config=config, pool=pool)
        assert healthy.rows == serial.rows
        assert healthy.resilience.respawns == 0
        assert [r.dispatch_mode for r in healthy.ctp_reports] == POOLED_MODES


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
        assert response.stats.dispatch_modes == INLINE_MODES
        assert response.stats.hangs == 0
        stats = server.stats()
        assert stats["pool"]["respawns"] == 1
        assert stats["pool"]["recycles"] == 0
        assert "breaker_state" not in stats["pool"]
        # A CTP the memo cannot serve runs on fresh workers (?w2 repeats
        # the first request's).
        again = server.handle(QueryRequest(query=MATRIX_QUERY.replace("MAX 3", "MAX 4")))
        assert again.status == STATUS_OK
        assert again.stats.dispatch_modes == ["process", "memo", "memo"]


def test_server_scorer_fault_surfaces_as_error_status(fig1):
    faults.install_plan(FaultPlan(specs=(FaultSpec.scorer(at=(0,), epochs=(0,)),)))
    with QueryServer(fig1, workers=1, max_pending=4) as server:
        first = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert first.status == STATUS_ERROR
        assert "injected scorer failure" in first.error
        second = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert second.status == STATUS_OK  # the fault was one-shot; no restart needed
        assert server.errors == 1
