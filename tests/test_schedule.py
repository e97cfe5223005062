"""Cost-model-driven CTP scheduling: the property-test harness.

The scheduling layer (``repro.query.costmodel`` + the dispatch hooks in
``repro.query.parallel``) makes four decisions for every query — auto mode
selection, longest-first submission, deadline shares and their
rebalancing, pipelined (A)→(B) overlap — and every one of them must be
**representation-only**: rows are bit-identical to serial dispatch
whatever the scheduler decided.  Five layers pin that:

* **determinism matrix** — every algorithm × serial/thread/process/auto
  dispatch, with and without a deadline ledger, produces exactly the
  serial rows on the multi-CTP query with a repeated CTP — and the rows
  ``tests/data/knobs_golden.json`` recorded from ``scheduling=False``
  before that switch was retired (so do the pipeline query and the star
  identity batch of the retired ``repro.bench schedule``);
* **fake-clock ledger** — :class:`DeadlineLedger` build budgets are
  cost-proportional and sum to the deadline, grants never drop below the
  build budget (even past the deadline) and never exceed the intrinsic
  timeout, settled budget flows to pending CTPs — exact arithmetic via
  ``repro.testing.FakeClock``, no wall-clock races;
* **inline-executor ordering** — ``Dispatch.submit`` starts leaders
  longest-first with ties broken by CTP index, recorded deterministically
  by ``repro.testing.InlineExecutor``, and in-flight dedup survives
  reordering;
* **Hypothesis properties** — *arbitrary* estimate assignments (any
  permutation the cost model could ever produce) leave thread-dispatch
  rows identical to serial, and ledger invariants hold for random
  costs/clock advances;
* **satellite regressions** — ``ResultCache.size_walks`` (one deep walk
  per distinct inserted value), tolerant ``SearchStats`` merge/round-trip,
  and per-response schedule telemetry through the query server.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ctp.config import SearchConfig
from repro.ctp.context import ResultCache
from repro.ctp.registry import ALGORITHMS
from repro.ctp.results import CTPResultSet
from repro.ctp.stats import SearchStats
from repro.errors import ConfigError
from repro.graph.datasets import figure1
from repro.graph.graph import Graph
from repro.query.costmodel import (
    LEDGER_FLOOR,
    DeadlineLedger,
    QuerySchedule,
    choose_mode,
)
from repro.query.evaluator import evaluate_query
from repro.query.parallel import CTPJob, Dispatch, run_ctp_jobs
from repro.serve import STATUS_OK, QueryRequest, QueryServer
from repro.testing import FakeClock, InlineExecutor, query_record
from repro.workloads.synthetic import grouped_star

SETTINGS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

MATRIX_QUERY = """
SELECT ?x ?w1 ?w2 ?w3 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
  CONNECT(?x, "France") AS ?w3 MAX 3
}
"""

#: The third CONNECT has constant-only seeds: no BGP variable binds it, so
#: the pipelined path may start it before step (A) runs at all.
PIPELINE_QUERY = """
SELECT ?x ?w1 ?w4 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT("France", "National Liberal Party") AS ?w4 MAX 3
}
"""


def _star_query(pairs) -> str:
    """One ``CONNECT ... MAX 6`` per ``(a, b)`` pair of seed groups of
    :func:`grouped_star` (6 edges is the tip-to-tip distance at arm 3)."""
    lines = []
    for v, (a, b) in enumerate(pairs):
        lines.append(f'FILTER(type(?s{v}) = "g{a}")')
        lines.append(f'FILTER(type(?t{v}) = "g{b}")')
    lines += [f"CONNECT(?s{v}, ?t{v}) AS ?w{v} MAX 6" for v in range(len(pairs))]
    head = " ".join(f"?w{v}" for v in range(len(pairs)))
    return f"SELECT {head} WHERE {{ {' '.join(lines)} }}"


#: The identity batch of the retired ``repro.bench schedule``: a one-CTP
#: and a two-CTP query on the merge-heavy star, evaluated by ``bft``.
STAR_QUERIES = {"star-1ctp": _star_query([(1, 2)]), "star-2ctp": _star_query([(0, 1), (1, 2)])}

#: ``tests/data/knobs_golden.json``, section ``"schedule"``: the record
#: (:func:`repro.testing.query_record`) of the matrix and pipeline queries
#: under every algorithm and of the star batch under ``bft``, on serial
#: dispatch — recorded through the retired ``SearchConfig(scheduling=False)``.
GOLDEN_PATH = Path(__file__).parent / "data" / "knobs_golden.json"


def _golden_records():
    fig1 = figure1()
    for name, query in (("matrix", MATRIX_QUERY), ("pipeline", PIPELINE_QUERY)):
        for algo in sorted(ALGORITHMS):
            yield f"{name}|{algo}", query_record(evaluate_query(fig1, query, algorithm=algo))
    star = grouped_star(5, 3, 3)
    for name, query in STAR_QUERIES.items():
        yield f"{name}|bft", query_record(evaluate_query(star, query, "bft"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["schedule"]


# ----------------------------------------------------------------------
# determinism matrix: scheduled rows identical to serial, every algorithm
# ----------------------------------------------------------------------
#: The ids predate the retirement of ``SearchConfig.scheduling`` and are
#: kept, so that a cell keeps its name from one test log to the next.  The
#: ``-sched`` cells run what they always ran.  The three ``-nosched`` cells
#: differed from them only by the flag; they now hold cells the matrix
#: lacked: process mode collapsing to the inline executor at one worker,
#: two threads instead of four, and a deadline under process dispatch.
SCHED_VARIANTS = {
    "serial-nosched": dict(parallelism=1, parallelism_mode="process"),
    "serial-sched": dict(parallelism=1),
    "serial-deadline-sched": dict(parallelism=1, deadline=60.0),
    "thread-nosched": dict(parallelism=2),
    "thread-sched": dict(parallelism=4),
    "thread-deadline-sched": dict(parallelism=4, deadline=60.0),
    "process-nosched": dict(parallelism=2, parallelism_mode="process", deadline=60.0),
    "process-sched": dict(parallelism=2, parallelism_mode="process"),
    "auto-sched": dict(parallelism=4, parallelism_mode="auto"),
}

_serial_rows = {}


def _serial(fig1, algo: str):
    if algo not in _serial_rows:
        _serial_rows[algo] = evaluate_query(fig1, MATRIX_QUERY, algorithm=algo)
    return _serial_rows[algo]


@pytest.mark.parametrize("variant", sorted(SCHED_VARIANTS))
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_scheduled_rows_identical_to_serial(fig1, golden, algo, variant):
    serial = _serial(fig1, algo)
    scheduled = evaluate_query(
        fig1,
        MATRIX_QUERY,
        algorithm=algo,
        base_config=SearchConfig(**SCHED_VARIANTS[variant]),
    )
    assert scheduled.columns == serial.columns
    assert scheduled.rows == serial.rows  # bit-identical, order included
    assert query_record(scheduled) == golden[f"matrix|{algo}"]
    for sched_report, ser_report in zip(scheduled.ctp_reports, serial.ctp_reports):
        assert sched_report.seed_set_sizes == ser_report.seed_set_sizes
        assert [r.edges for r in sched_report.result_set] == [
            r.edges for r in ser_report.result_set
        ]
    assert len(scheduled.schedule.estimates) == 3
    assert all(estimate > 0 for estimate in scheduled.schedule.estimates)


@pytest.mark.parametrize("name", sorted(STAR_QUERIES))
def test_star_batch_rows_identical_under_every_dispatch(golden, name):
    star = grouped_star(5, 3, 3)
    for config in (
        SearchConfig(),
        SearchConfig(parallelism=2),
        SearchConfig(parallelism=2, parallelism_mode="process"),
        SearchConfig(parallelism=2, parallelism_mode="auto"),
    ):
        result = evaluate_query(star, STAR_QUERIES[name], "bft", base_config=config)
        assert query_record(result) == golden[f"{name}|bft"]


def test_scheduled_dedup_still_shares_the_repeated_ctp(fig1):
    result = evaluate_query(fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=4))
    first, _, third = result.ctp_reports
    assert not first.cache_hit
    assert third.cache_hit  # the ?w3 duplicate of ?w1
    assert third.result_set is first.result_set


# ----------------------------------------------------------------------
# pipelined (A)→(B) overlap
# ----------------------------------------------------------------------
def test_pipelined_free_ctp_overlaps_bgp(fig1):
    serial = evaluate_query(fig1, PIPELINE_QUERY)
    result = evaluate_query(fig1, PIPELINE_QUERY, base_config=SearchConfig(parallelism=4))
    assert result.columns == serial.columns and result.rows == serial.rows
    assert result.schedule.mode_selected == "thread"
    # The constant-seeded CONNECT was submitted while the BGP still ran.
    assert result.schedule.pipeline_overlaps == 1


def test_pipelined_bound_ctps_wait_for_their_bgp(fig1):
    serial = evaluate_query(fig1, MATRIX_QUERY)
    result = evaluate_query(fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=4))
    assert result.rows == serial.rows
    # Every CONNECT seeds from ?x, bound by the one BGP: nothing overlaps.
    assert result.schedule.pipeline_overlaps == 0


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_pipelined_rows_match_golden(fig1, golden, algo):
    result = evaluate_query(
        fig1,
        PIPELINE_QUERY,
        algorithm=algo,
        base_config=SearchConfig(parallelism=4),
    )
    assert query_record(result) == golden[f"pipeline|{algo}"]
    assert result.schedule.pipeline_overlaps == 1


def test_pipelined_with_deadline_keeps_rows(fig1):
    serial = evaluate_query(fig1, PIPELINE_QUERY)
    result = evaluate_query(
        fig1,
        PIPELINE_QUERY,
        base_config=SearchConfig(parallelism=4, deadline=60.0),
    )
    assert result.rows == serial.rows
    assert result.schedule.pipeline_overlaps == 1


# ----------------------------------------------------------------------
# auto mode selection
# ----------------------------------------------------------------------
def test_auto_mode_single_ctp_stays_serial(fig1):
    query = 'SELECT ?w WHERE { CONNECT("France", "National Liberal Party") AS ?w MAX 3 }'
    serial = evaluate_query(fig1, query)
    result = evaluate_query(
        fig1, query, base_config=SearchConfig(parallelism=4, parallelism_mode="auto")
    )
    assert result.rows == serial.rows
    assert result.schedule.mode_requested == "auto"
    assert result.schedule.mode_selected == "serial"  # one job: nothing to overlap


def test_auto_mode_selection_consistent_with_choose_mode(fig1):
    result = evaluate_query(
        fig1,
        MATRIX_QUERY,
        algorithm="bft",
        base_config=SearchConfig(parallelism=4, parallelism_mode="auto"),
    )
    report = result.schedule
    assert report.mode_requested == "auto"
    assert report.mode_selected == choose_mode(sum(report.estimates), len(report.estimates), 4)


# ----------------------------------------------------------------------
# DeadlineLedger: exact arithmetic under a fake clock
# ----------------------------------------------------------------------
def test_ledger_rejects_non_positive_deadline():
    with pytest.raises(ConfigError):
        DeadlineLedger(0.0, started=0.0)


def test_ledger_primed_builds_are_cost_proportional():
    ledger = DeadlineLedger(10.0, started=0.0, workers=1, clock=FakeClock())
    ledger.prime({0: 3.0, 1: 1.0})
    # The cost passed to register is ignored for a primed index (idempotence).
    assert ledger.register(0, 999.0, None) == pytest.approx(7.5)
    assert ledger.register(1, 999.0, None) == pytest.approx(2.5)
    # Serial shares sum to the whole deadline — no budget is stranded.
    assert ledger.build_budget(0) + ledger.build_budget(1) == pytest.approx(10.0)


def test_ledger_unprimed_first_register_sees_only_itself():
    # The pipelined path's documented heuristic: incremental registration
    # gives early CTPs generous shares (pending pool = themselves).
    ledger = DeadlineLedger(10.0, started=0.0, clock=FakeClock())
    assert ledger.register(0, 3.0, None) == pytest.approx(10.0)
    assert ledger.register(1, 1.0, None) == pytest.approx(2.5)  # 10 * 1/4


def test_ledger_workers_degenerate_to_full_remaining():
    # With every CTP on its own worker the shares hit the min(1, ...) cap:
    # the historical full-remaining behaviour.
    ledger = DeadlineLedger(10.0, started=0.0, workers=2, clock=FakeClock())
    ledger.prime({0: 1.0, 1: 1.0})
    assert ledger.register(0, 1.0, None) == pytest.approx(10.0)
    assert ledger.register(1, 1.0, None) == pytest.approx(10.0)


def test_ledger_grant_never_below_build_even_past_deadline():
    clock = FakeClock()
    ledger = DeadlineLedger(1.0, started=0.0, clock=clock)
    ledger.prime({0: 1.0, 1: 1.0})
    ledger.register(0, 1.0, None)
    build = ledger.register(1, 1.0, None)
    clock.advance(5.0)  # deadline long gone
    assert ledger.remaining() == LEDGER_FLOOR
    assert ledger.grant(1) == pytest.approx(build)  # the pinned invariant
    assert ledger.rebalances == 0


def test_ledger_settled_budget_flows_to_pending_ctp():
    clock = FakeClock()
    ledger = DeadlineLedger(10.0, started=0.0, clock=clock)
    ledger.prime({0: 1.0, 1: 9.0})
    ledger.register(0, 1.0, None)
    build = ledger.register(1, 9.0, None)
    assert build == pytest.approx(9.0)
    clock.advance(0.5)
    ledger.settle(0)  # the cheap CTP finished half its share early
    granted = ledger.grant(1)
    assert granted == pytest.approx(9.5)  # all 9.5s remaining, alone in the pool
    assert granted > build
    assert ledger.rebalances == 1
    assert ledger.rebalanced_seconds == pytest.approx(0.5)


def test_ledger_grant_capped_by_intrinsic_timeout():
    ledger = DeadlineLedger(10.0, started=0.0, clock=FakeClock())
    ledger.prime({0: 1.0, 1: 1.0})
    assert ledger.register(0, 1.0, 0.25) == pytest.approx(0.25)  # tighter than share
    ledger.register(1, 1.0, None)
    ledger.settle(1)
    # Fair share is now the whole remaining deadline; intrinsic still caps.
    assert ledger.grant(0) == pytest.approx(0.25)
    assert ledger.rebalances == 0


@SETTINGS
@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=6
    ),
    advance=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    intrinsic=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=8.0, allow_nan=False)),
    workers=st.integers(min_value=1, max_value=4),
)
def test_ledger_grant_invariants_property(costs, advance, intrinsic, workers):
    clock = FakeClock()
    ledger = DeadlineLedger(5.0, started=0.0, workers=workers, clock=clock)
    ledger.prime(dict(enumerate(costs)))
    builds = {i: ledger.register(i, cost, intrinsic) for i, cost in enumerate(costs)}
    clock.advance(advance)
    for index in range(len(costs) // 2):
        ledger.settle(index)
    for index in range(len(costs)):
        granted = ledger.grant(index)
        assert granted >= builds[index] - 1e-12  # never below the build budget
        if intrinsic is not None:
            assert granted <= intrinsic + 1e-12  # never above the intrinsic cap


# ----------------------------------------------------------------------
# the deadline bounds the query, not each CTP
# ----------------------------------------------------------------------
def test_deadline_bounds_a_serial_query(fig1, monkeypatch):
    """Three CTPs that each spend whatever they are handed: on serial
    dispatch the budgets handed out sum to at most the deadline.  (Capping
    each to the budget left at job-build time hands out three deadlines.)"""
    clock = FakeClock()
    fake_time = SimpleNamespace(perf_counter=clock)
    monkeypatch.setattr("repro.query.evaluator.time", fake_time)
    monkeypatch.setattr("repro.query.costmodel.time", fake_time)
    budgets = []

    class Greedy:
        def run(self, graph, seed_sets, config, context=None):
            budgets.append(config.timeout)
            clock.advance(config.timeout)
            return CTPResultSet([], SearchStats(), complete=False, timed_out=True)

    monkeypatch.setattr("repro.query.parallel.get_algorithm", lambda name: Greedy())
    query = MATRIX_QUERY.replace("AS ?w3 MAX 3", "AS ?w3 MAX 4")  # three distinct CTPs
    result = evaluate_query(fig1, query, base_config=SearchConfig(deadline=0.5))
    assert len(budgets) == 3
    assert sum(budgets) <= 0.5 + 3 * LEDGER_FLOOR
    assert all(report.result_set.timed_out for report in result.ctp_reports)
    # A CTP's own TIMEOUT still caps its share.
    del budgets[:]
    clock.now = 0.0
    evaluate_query(fig1, query, base_config=SearchConfig(deadline=0.5, timeout=0.01))
    assert budgets == [0.01, 0.01, 0.01]


# ----------------------------------------------------------------------
# QuerySchedule: grants applied to run configs
# ----------------------------------------------------------------------
def test_config_for_run_applies_upward_grant_only():
    clock = FakeClock()
    ledger = DeadlineLedger(10.0, started=0.0, clock=clock)
    ledger.prime({0: 1.0, 1: 9.0})
    build0 = ledger.register(0, 1.0, None)
    build1 = ledger.register(1, 9.0, None)
    schedule = QuerySchedule(estimates={0: 1.0, 1: 9.0}, ledger=ledger)
    job0 = CTPJob(index=0, seed_sets=[], config=SearchConfig(timeout=build0))
    # Grant equals the build budget: the very same config object comes back
    # — as it does from a schedule with no ledger (no deadline) at all.
    assert schedule.config_for_run(job0) is job0.config
    assert QuerySchedule(estimates={0: 1.0}).config_for_run(job0) is job0.config
    clock.advance(0.5)
    schedule.settle(0)
    job1 = CTPJob(index=1, seed_sets=[], config=SearchConfig(timeout=build1))
    regranted = schedule.config_for_run(job1)
    assert regranted is not job1.config
    assert regranted.timeout == pytest.approx(9.5)


def test_finalize_folds_estimates_actuals_and_ledger_counters():
    ledger = DeadlineLedger(10.0, started=0.0, clock=FakeClock())
    ledger.rebalances = 2
    ledger.rebalanced_seconds = 0.75
    schedule = QuerySchedule(estimates={1: 4.0}, ledger=ledger)
    outcomes = [SimpleNamespace(seconds=0.1), SimpleNamespace(seconds=0.2), None]
    report = schedule.finalize(outcomes)
    assert report.estimates == [0.0, 4.0, 0.0]  # padded to outcome count
    assert report.actual_seconds == [0.1, 0.2, 0.0]
    assert report.rebalances == 2
    assert report.rebalanced_seconds == 0.75
    assert set(report.as_dict()) >= {"estimates", "submit_order", "rebalances"}


# ----------------------------------------------------------------------
# Dispatch ordering: longest-first, deterministic, dedup-preserving
# ----------------------------------------------------------------------
class _FakeResultSet:
    complete = True
    timed_out = False


def _dispatch(jobs, executor, schedule, reorder=True):
    """One barrier dispatch over ``executor``: ``(outcomes, follower indices)``."""
    start = lambda job: executor.submit(lambda j: (_FakeResultSet(), 0.0), job)  # noqa: E731
    dispatch = Dispatch(None, schedule, start, "thread", reorder=reorder)
    dispatch.submit(jobs)
    return dispatch.finish(), dispatch.followers


def test_fan_out_submits_longest_first_ties_by_index():
    executor = InlineExecutor()
    jobs = [CTPJob(index=i, seed_sets=[], config=SearchConfig()) for i in range(4)]
    schedule = QuerySchedule(estimates={0: 1.0, 1: 9.0, 2: 9.0, 3: 4.0})
    outcomes, followers = _dispatch(jobs, executor, schedule)
    assert [args[0].index for _, args in executor.submitted] == [1, 2, 3, 0]
    assert schedule.report.submit_order == [1, 2, 3, 0]
    assert followers == []
    assert all(outcome is not None for outcome in outcomes)


def test_fan_out_without_reorder_keeps_ctp_order():
    """``reorder=False`` (what the inline executor is opened with) and a
    schedule without estimates (all ties) both leave CTP order alone."""
    jobs = [CTPJob(index=i, seed_sets=[], config=SearchConfig()) for i in range(3)]
    executor = InlineExecutor()
    _dispatch(jobs, executor, QuerySchedule(estimates={0: 1.0, 1: 9.0, 2: 4.0}), reorder=False)
    assert [args[0].index for _, args in executor.submitted] == [0, 1, 2]
    executor = InlineExecutor()
    _dispatch(jobs, executor, QuerySchedule())
    assert [args[0].index for _, args in executor.submitted] == [0, 1, 2]


def test_fan_out_dedup_survives_reordering():
    executor = InlineExecutor()
    jobs = [
        CTPJob(index=0, seed_sets=[], config=SearchConfig(), memo_key="dup"),
        CTPJob(index=1, seed_sets=[], config=SearchConfig(), memo_key="solo"),
        CTPJob(index=2, seed_sets=[], config=SearchConfig(), memo_key="dup"),
    ]
    schedule = QuerySchedule(estimates={0: 1.0, 1: 9.0, 2: 1.0})
    outcomes, followers = _dispatch(jobs, executor, schedule)
    # Two leaders only (the duplicate shares), ordered longest-first.
    assert [args[0].index for _, args in executor.submitted] == [1, 0]
    assert followers == [2]
    assert outcomes[2].cache_hit
    assert outcomes[2].result_set is outcomes[0].result_set


# ----------------------------------------------------------------------
# Hypothesis: rows identical to serial under ANY estimate assignment
# ----------------------------------------------------------------------
def _chain_graph() -> Graph:
    graph = Graph("sched-chain")
    for index in range(8):
        graph.add_node(f"c{index}")
    for index in range(7):
        graph.add_edge(index, index + 1, "e")
    graph.add_edge(0, 4, "f")
    graph.add_edge(3, 7, "f")
    return graph


_CHAIN = _chain_graph()
_CHAIN_PAIRS = (((0,), (3,)), ((1,), (5,)), ((2,), (7,)), ((0,), (7,)))


def _chain_jobs():
    return [
        CTPJob(index=i, seed_sets=list(pair), config=SearchConfig(max_edges=7))
        for i, pair in enumerate(_CHAIN_PAIRS)
    ]


_chain_serial = None


def _chain_reference():
    global _chain_serial
    if _chain_serial is None:
        outcomes = run_ctp_jobs(_CHAIN, "bft", _chain_jobs(), None, parallelism=1)
        _chain_serial = [[r.edges for r in o.result_set] for o in outcomes]
    return _chain_serial


@SETTINGS
@given(
    estimates=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
def test_any_estimate_assignment_keeps_rows_identical(estimates):
    schedule = QuerySchedule(estimates=dict(enumerate(estimates)))
    outcomes = run_ctp_jobs(
        _CHAIN, "bft", _chain_jobs(), None, parallelism=4, mode="thread", schedule=schedule
    )
    assert [[r.edges for r in o.result_set] for o in outcomes] == _chain_reference()
    assert all(outcome.mode == "thread" for outcome in outcomes)
    expected = sorted(range(4), key=lambda i: (-estimates[i], i))
    assert schedule.report.submit_order == expected


# ----------------------------------------------------------------------
# satellite: ResultCache size-walk accounting
# ----------------------------------------------------------------------
def test_result_cache_one_size_walk_per_distinct_value():
    cache = ResultCache(maxsize=8, max_bytes=1 << 20)
    value = [list(range(10))]
    cache.put("k", value)
    assert cache.size_walks == 1
    # Memo-replay refile of the identical object: recency refresh only.
    cache.put("k", value)
    assert cache.size_walks == 1
    assert cache.get("k") is value
    # Replacing with a different (even equal) object must re-walk.
    cache.put("k", [list(range(10))])
    assert cache.size_walks == 2


def test_result_cache_unbounded_bytes_never_walks():
    cache = ResultCache(maxsize=4)
    cache.put("a", [1])
    cache.put("a", [2])
    assert cache.size_walks == 0
    assert cache.total_bytes == 0


def test_result_cache_replacement_keeps_total_bytes_exact():
    cache = ResultCache(maxsize=4, max_bytes=1 << 20)
    cache.put("k", list(range(100)))
    grown = cache.total_bytes
    cache.put("k", [1])
    assert 0 < cache.total_bytes < grown


# ----------------------------------------------------------------------
# satellite: tolerant SearchStats merge / round-trip
# ----------------------------------------------------------------------
def test_search_stats_merge_tolerates_older_instances():
    stats = SearchStats(grows=3, pool_sets=2)
    # An instance unpickled from an older worker: newer counters absent.
    vintage = SimpleNamespace(grows=1, merges=4)
    stats.merge(vintage)
    assert stats.grows == 4
    assert stats.merges == 4
    assert stats.pool_sets == 2  # missing on `vintage`: merged as zero


def test_search_stats_dict_round_trip():
    stats = SearchStats(grows=2, merges=1, trees_kept=5, elapsed_seconds=0.5)
    data = stats.as_dict()
    assert data["provenances"] == stats.provenances  # derived key present
    assert SearchStats.from_dict(data) == stats  # round-trip, derived key ignored
    # Vintage dict: missing counters default, unknown counters are ignored.
    legacy = SearchStats.from_dict({"grows": 7, "future_counter": 3})
    assert legacy.grows == 7
    assert legacy.pool_sets == 0


# ----------------------------------------------------------------------
# satellite: per-response schedule telemetry through the server
# ----------------------------------------------------------------------
def test_server_response_carries_schedule_telemetry(fig1):
    with QueryServer(fig1, dispatch_mode="serial") as server:
        response = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert response.status == STATUS_OK
        telemetry = response.stats.schedule
        assert telemetry["mode_selected"] == "serial"
        assert len(telemetry["estimates"]) == 3
        assert len(telemetry["actual_seconds"]) == 3


if __name__ == "__main__":
    if "--regen" in sys.argv:
        records = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        records["schedule"] = dict(_golden_records())
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
