"""CTP scheduling: deadline shares, CTP-order starts, and what ran.

The scheduling layer (the :class:`DeadlineLedger` of
``repro.query.costmodel``, which ``repro.query.parallel`` threads through
dispatch) starts a query's searches in CTP order and splits a deadline
into equal shares that are re-granted as CTPs finish.  Each CTP's report
says what executed it (``dispatch_mode``), and the result carries the
ledger's rebalance counters.  All of it must be
**representation-only**: rows are bit-identical to serial dispatch.
Five layers pin that:

* **determinism matrix** — every algorithm × inline / pool-fallback /
  worker-pool dispatch, with and without a deadline, produces
  exactly the serial rows on the multi-CTP query with a repeated CTP —
  and the rows ``tests/data/knobs_golden.json`` recorded from
  ``scheduling=False`` before that switch was retired (so do the
  pipeline query and the star identity batch of the retired
  ``repro.bench schedule``);
* **fake-clock ledger** — :class:`DeadlineLedger` build budgets are
  equal shares that sum to the deadline, grants never drop below the
  build budget (even past the deadline) and never exceed the intrinsic
  timeout, settled budget flows to pending CTPs — exact arithmetic via
  ``repro.testing.FakeClock``, no wall-clock races;
* **inline-executor ordering** — ``Dispatch.run`` starts leaders in CTP
  order, recorded deterministically by ``repro.testing.InlineExecutor``,
  with in-flight dedup intact;
* **Hypothesis properties** — ledger invariants hold for random CTP
  counts, worker slots and clock advances;
* **satellite regressions** — ``dispatch_mode`` is what executed, the
  ledger's slot count is taken from the pool, its rebalance counters
  reach ``QueryResult``, tolerant ``SearchStats`` merge and ``as_dict``,
  and per-response dispatch modes through the query server.

A pool that gives up runs its CTPs inline; the fallback cells reach
that path through :func:`repro.testing.fallback_pool`.
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
from repro.ctp.context import SearchContext
from repro.ctp.registry import ALGORITHMS
from repro.ctp.results import CTPResultSet
from repro.ctp.stats import SearchStats
from repro.errors import ConfigError
from repro.graph.datasets import figure1
from repro.query.costmodel import LEDGER_FLOOR, DeadlineLedger
from repro.query.evaluator import evaluate_query
from repro.query.parallel import CTPJob, Dispatch
from repro.query.pool import WorkerPool
from repro.serve import STATUS_OK, QueryRequest, QueryServer
from repro.testing import FakeClock, InlineExecutor, fallback_pool, query_record
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

#: The third CONNECT has constant-only seeds: no BGP variable binds it
#: (the retired pipelined path started it before step (A) ran).
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
#: Each cell is named for what runs its CTPs, and holds a config and that
#: executor: ``None`` (no pool: inline), ``"fallback"`` (a pool that gives
#: up, :func:`repro.testing.fallback_pool`: under a deadline the ledger is
#: cut for ``parallelism`` slots, then re-cut for one, and the CTPs run
#: inline) or ``"pool"`` (a two-worker :class:`WorkerPool`).  Each runs
#: once without and once with a deadline.  ``parallelism`` only sizes the
#: pool here (query evaluation does not read it), and only the ledger
#: reads a fallback pool's size.
SCHED_VARIANTS = {
    "inline": (dict(parallelism=1), None),
    "inline-deadline": (dict(parallelism=1, deadline=60.0), None),
    "fallback": (dict(parallelism=4), "fallback"),
    "fallback-deadline": (dict(parallelism=4, deadline=60.0), "fallback"),
    "pool": (dict(parallelism=2), "pool"),
    "pool-deadline": (dict(parallelism=2, deadline=60.0), "pool"),
}


def _evaluate(graph, query, variant, algorithm="molesp"):
    """``query`` under a :data:`SCHED_VARIANTS` cell."""
    options, executor = SCHED_VARIANTS[variant]
    config = SearchConfig(**options)
    if executor is None:
        return evaluate_query(graph, query, algorithm, base_config=config)
    if executor == "fallback":
        pool = fallback_pool(graph, config.parallelism)
    else:
        pool = WorkerPool(graph, workers=config.parallelism)
    with pool:
        return evaluate_query(graph, query, algorithm, base_config=config, pool=pool)


_serial_rows = {}


def _serial(fig1, algo: str):
    if algo not in _serial_rows:
        _serial_rows[algo] = evaluate_query(fig1, MATRIX_QUERY, algorithm=algo)
    return _serial_rows[algo]


@pytest.mark.parametrize("variant", sorted(SCHED_VARIANTS))
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_scheduled_rows_identical_to_serial(fig1, golden, algo, variant):
    serial = _serial(fig1, algo)
    scheduled = _evaluate(fig1, MATRIX_QUERY, variant, algorithm=algo)
    assert scheduled.columns == serial.columns
    assert scheduled.rows == serial.rows  # bit-identical, order included
    assert query_record(scheduled) == golden[f"matrix|{algo}"]
    for sched_report, ser_report in zip(scheduled.ctp_reports, serial.ctp_reports):
        assert sched_report.seed_set_sizes == ser_report.seed_set_sizes
        assert [r.edges for r in sched_report.result_set] == [
            r.edges for r in ser_report.result_set
        ]
    executor = SCHED_VARIANTS[variant][1]
    want = {None: "serial", "fallback": "process->serial", "pool": "process"}[executor]
    # ?w3 repeats ?w1: it rides ?w1's run and is served from the memo.
    assert [report.dispatch_mode for report in scheduled.ctp_reports] == [want, want, "memo"]
    if "deadline" not in variant:
        assert (scheduled.rebalances, scheduled.rebalanced_seconds) == (0, 0.0)


@pytest.mark.parametrize("name", sorted(STAR_QUERIES))
def test_star_batch_rows_identical_under_every_dispatch(golden, name):
    star = grouped_star(5, 3, 3)
    for variant in ("inline", "fallback", "pool"):
        result = _evaluate(star, STAR_QUERIES[name], variant, algorithm="bft")
        assert query_record(result) == golden[f"{name}|bft"]


def test_scheduled_dedup_still_shares_the_repeated_ctp(fig1):
    result = _evaluate(fig1, MATRIX_QUERY, "fallback")
    first, _, third = result.ctp_reports
    assert not first.cache_hit
    assert third.cache_hit  # the ?w3 duplicate of ?w1
    assert third.result_set is first.result_set


# ----------------------------------------------------------------------
# the pipeline query (named for the retired pipelined submission)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_pipelined_rows_match_golden(fig1, golden, algo):
    result = _evaluate(fig1, PIPELINE_QUERY, "fallback", algorithm=algo)
    assert query_record(result) == golden[f"pipeline|{algo}"]


def test_pipelined_with_deadline_keeps_rows(fig1):
    serial = evaluate_query(fig1, PIPELINE_QUERY)
    result = _evaluate(fig1, PIPELINE_QUERY, "fallback-deadline")
    assert result.rows == serial.rows


# ----------------------------------------------------------------------
# dispatch_mode: what executed each CTP
# ----------------------------------------------------------------------
def test_dispatch_mode_is_what_executed_not_what_was_asked(fig1):
    """A lambda scorer cannot cross the process boundary: a query handed a
    pool degrades to inline, and the report must say so."""
    score = lambda graph, edges, nodes: -len(edges)  # noqa: E731
    with WorkerPool(fig1, workers=2) as pool:
        result = evaluate_query(
            fig1, MATRIX_QUERY, base_config=SearchConfig(parallelism=2, score=score), pool=pool
        )
    executed = [r.dispatch_mode for r in result.ctp_reports if r.dispatch_mode != "memo"]
    assert executed == ["process->serial"] * 2


def test_dispatch_mode_when_every_ctp_is_served_from_the_memo(fig1):
    context = SearchContext()
    evaluate_query(fig1, MATRIX_QUERY, context=context)
    again = evaluate_query(fig1, MATRIX_QUERY, context=context)
    assert [r.dispatch_mode for r in again.ctp_reports] == ["memo"] * 3
    assert [r.seconds for r in again.ctp_reports] == [0.0] * 3


# ----------------------------------------------------------------------
# DeadlineLedger: exact arithmetic under a fake clock
# ----------------------------------------------------------------------
def test_ledger_rejects_non_positive_deadline():
    with pytest.raises(ConfigError):
        DeadlineLedger(0.0, started=0.0, indices=[])


def test_ledger_workers_degenerate_to_full_remaining():
    # With every CTP on its own worker the shares hit the min(1, ...) cap:
    # the historical full-remaining behaviour.
    ledger = DeadlineLedger(10.0, started=0.0, indices=[0, 1], workers=2, clock=FakeClock())
    assert ledger.register(0, None) == pytest.approx(10.0)
    assert ledger.register(1, None) == pytest.approx(10.0)


def test_ledger_grant_never_below_build_even_past_deadline():
    clock = FakeClock()
    ledger = DeadlineLedger(1.0, started=0.0, indices=[0, 1], clock=clock)
    ledger.register(0, None)
    build = ledger.register(1, None)
    clock.advance(5.0)  # deadline long gone
    assert ledger.remaining() == LEDGER_FLOOR
    assert ledger.grant(1) == pytest.approx(build)  # the pinned invariant
    assert ledger.rebalances == 0


def test_ledger_settled_budget_flows_to_pending_ctp():
    clock = FakeClock()
    ledger = DeadlineLedger(10.0, started=0.0, indices=[0, 1], clock=clock)
    # Both CTPs are pending at build time: equal halves, summing to the
    # whole deadline.
    builds = [ledger.register(0, None), ledger.register(1, None)]
    assert builds == [5.0, 5.0]
    assert sum(builds) == 10.0
    clock.advance(0.5)
    ledger.settle(0)  # the first CTP finished 4.5s under its share
    granted = ledger.grant(1)
    assert granted == 9.5  # all 9.5s remaining, alone in the pool
    assert ledger.rebalances == 1
    assert ledger.rebalanced_seconds == 4.5


def test_ledger_grant_capped_by_intrinsic_timeout():
    ledger = DeadlineLedger(10.0, started=0.0, indices=[0, 1], clock=FakeClock())
    assert ledger.register(0, 0.25) == pytest.approx(0.25)  # tighter than share
    ledger.register(1, None)
    ledger.settle(1)
    # Fair share is now the whole remaining deadline; intrinsic still caps.
    assert ledger.grant(0) == pytest.approx(0.25)
    assert ledger.rebalances == 0


@SETTINGS
@given(
    count=st.integers(min_value=1, max_value=6),
    advance=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    intrinsic=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=8.0, allow_nan=False)),
    workers=st.integers(min_value=1, max_value=4),
)
def test_ledger_grant_invariants_property(count, advance, intrinsic, workers):
    clock = FakeClock()
    ledger = DeadlineLedger(5.0, started=0.0, indices=range(count), workers=workers, clock=clock)
    builds = {i: ledger.register(i, intrinsic) for i in range(count)}
    # Every build is the equal share min(1, workers / count) of the whole
    # deadline, under the intrinsic cap.
    share = 5.0 * min(1.0, workers / count)
    expected = share if intrinsic is None else min(share, intrinsic)
    assert builds == {i: expected for i in range(count)}
    clock.advance(advance)
    settled = count // 2
    for index in range(settled):
        ledger.settle(index)
    fair = max(5.0 - advance, LEDGER_FLOOR) * min(1.0, workers / max(1, count - settled))
    for index in range(count):
        granted = ledger.grant(index)
        want = max(builds[index], fair)
        if intrinsic is not None:
            want = max(min(want, intrinsic), builds[index])
        assert granted == want  # never below the build, never above the cap


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


def test_rebalances_are_read_off_the_ledger(fig1, monkeypatch):
    """The first of three CTPs finishes well under its share: the two
    after it are granted more than their build budgets, and the result
    reports exactly the ledger's rebalance counters."""
    clock = FakeClock()
    fake_time = SimpleNamespace(perf_counter=clock)
    monkeypatch.setattr("repro.query.evaluator.time", fake_time)
    monkeypatch.setattr("repro.query.costmodel.time", fake_time)
    ledgers, budgets = [], []

    class Spy(DeadlineLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            ledgers.append(self)

    class FastThenGreedy:
        def run(self, graph, seed_sets, config, context=None):
            budgets.append(config.timeout)
            clock.advance(0.05 if len(budgets) == 1 else config.timeout)
            return CTPResultSet([], SearchStats(), complete=False, timed_out=True)

    monkeypatch.setattr("repro.query.evaluator.DeadlineLedger", Spy)
    monkeypatch.setattr("repro.query.parallel.get_algorithm", lambda name: FastThenGreedy())
    query = MATRIX_QUERY.replace("AS ?w3 MAX 3", "AS ?w3 MAX 4")  # three distinct CTPs
    result = evaluate_query(fig1, query, base_config=SearchConfig(deadline=0.6))
    # Builds are 0.2 each.  After 0.05s, CTP 1 gets half of the 0.55s
    # left; it spends it all, and CTP 2 gets the 0.275s that remain.
    assert budgets == pytest.approx([0.2, 0.275, 0.275])
    (ledger,) = ledgers
    assert result.rebalances == ledger.rebalances == 2
    assert result.rebalanced_seconds == ledger.rebalanced_seconds
    assert result.rebalanced_seconds == pytest.approx(0.15)


@pytest.mark.parametrize("explicit_context", [False, True], ids=["default-context", "explicit-context"])
def test_deadline_bounds_a_degraded_pool_query(fig1, monkeypatch, explicit_context):
    """A pool that gives up runs its CTPs inline, back to back: budgets cut
    for four concurrent slots must be re-cut for one, or three deadline-
    hungry CTPs are handed ~2.9x the deadline."""
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
    context = SearchContext() if explicit_context else None
    with fallback_pool(fig1, 4) as pool:
        result = evaluate_query(
            fig1,
            query,
            base_config=SearchConfig(parallelism=4, deadline=0.5),
            context=context,
            pool=pool,
        )
    assert len(budgets) == 3
    assert sum(budgets) <= 0.5 + 3 * LEDGER_FLOOR
    assert [report.dispatch_mode for report in result.ctp_reports] == ["process->serial"] * 3


@pytest.mark.parametrize(
    "pool_workers, parallelism, slots",
    [(1, 4, 1), (4, 1, 3)],
    ids=["one-worker-pool", "four-worker-pool"],
)
def test_ledger_slots_come_from_the_pool(fig1, monkeypatch, pool_workers, parallelism, slots):
    """The ledger is cut for the jobs the pool can run at once, not for
    ``SearchConfig.parallelism``: a one-worker pool runs three
    deadline-hungry CTPs back to back, so each must get a third."""
    built = []

    class Spy(DeadlineLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.workers)

    monkeypatch.setattr("repro.query.evaluator.DeadlineLedger", Spy)
    query = MATRIX_QUERY.replace("AS ?w3 MAX 3", "AS ?w3 MAX 4")  # three distinct CTPs
    config = SearchConfig(parallelism=parallelism, deadline=0.5)
    with fallback_pool(fig1, pool_workers) as pool:
        evaluate_query(fig1, query, base_config=config, pool=pool)
    assert built == [slots]


# ----------------------------------------------------------------------
# DeadlineLedger.config_for: grants applied to run configs
# ----------------------------------------------------------------------
def test_config_for_applies_upward_grant_only():
    clock = FakeClock()
    ledger = DeadlineLedger(10.0, started=0.0, indices=[0, 1], clock=clock)
    build0 = ledger.register(0, None)
    build1 = ledger.register(1, None)
    assert (build0, build1) == (5.0, 5.0)
    job0 = CTPJob(index=0, seed_sets=[], config=SearchConfig(timeout=build0))
    # Grant equals the build budget: the very same config object comes back
    # — as it does from the deadline-free ledger.
    assert ledger.config_for(job0) is job0.config
    assert DeadlineLedger().config_for(job0) is job0.config
    clock.advance(0.5)
    ledger.settle(0)
    job1 = CTPJob(index=1, seed_sets=[], config=SearchConfig(timeout=build1))
    regranted = ledger.config_for(job1)
    assert regranted is not job1.config
    assert regranted.timeout == 9.5


# ----------------------------------------------------------------------
# Dispatch ordering: CTP order, deterministic, dedup-preserving
# ----------------------------------------------------------------------
class _FakeResultSet:
    complete = True
    timed_out = False


def _dispatch(jobs, executor):
    """One barrier dispatch over ``executor``: ``(outcomes, follower indices)``."""
    start = lambda job: executor.submit(lambda j: (_FakeResultSet(), 0.0), job)  # noqa: E731
    dispatch = Dispatch(None, DeadlineLedger(), start, "process")
    return dispatch.run(jobs), dispatch.followers


def test_fan_out_without_reorder_keeps_ctp_order():
    """``Dispatch`` has no ordering knob: leaders start in CTP order."""
    jobs = [CTPJob(index=i, seed_sets=[], config=SearchConfig()) for i in range(3)]
    executor = InlineExecutor()
    outcomes, followers = _dispatch(jobs, executor)
    assert [args[0].index for _, args in executor.submitted] == [0, 1, 2]
    assert followers == []
    assert all(outcome is not None for outcome in outcomes)


def test_fan_out_dedup_keeps_ctp_order():
    executor = InlineExecutor()
    jobs = [
        CTPJob(index=0, seed_sets=[], config=SearchConfig(), memo_key="dup"),
        CTPJob(index=1, seed_sets=[], config=SearchConfig(), memo_key="solo"),
        CTPJob(index=2, seed_sets=[], config=SearchConfig(), memo_key="dup"),
    ]
    outcomes, followers = _dispatch(jobs, executor)
    # Two leaders only (the duplicate shares), started in CTP order.
    assert [args[0].index for _, args in executor.submitted] == [0, 1]
    assert followers == [2]
    assert outcomes[2].cache_hit
    assert outcomes[2].result_set is outcomes[0].result_set


# ----------------------------------------------------------------------
# satellite: tolerant SearchStats merge, every counter in as_dict
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
    assert {key: data[key] for key in ("grows", "merges", "trees_kept", "elapsed_seconds")} == {
        "grows": 2,
        "merges": 1,
        "trees_kept": 5,
        "elapsed_seconds": 0.5,
    }


# ----------------------------------------------------------------------
# satellite: per-response dispatch modes through the server
# ----------------------------------------------------------------------
def test_server_response_carries_schedule_telemetry(fig1):
    with QueryServer(fig1, dispatch_mode="serial") as server:
        response = server.handle(QueryRequest(query=MATRIX_QUERY))
        assert response.status == STATUS_OK
        assert response.stats.dispatch_modes == ["serial", "serial", "memo"]
        assert (response.stats.rebalances, response.stats.rebalanced_seconds) == (0, 0.0)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        records = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        records["schedule"] = dict(_golden_records())
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
