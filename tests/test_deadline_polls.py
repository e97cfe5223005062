"""Deterministic deadline cuts of the GAM-family and BFT engines.

The GAM-family engines poll their :class:`~repro._util.Deadline` once per
Grow in the main loop and once per work item of the merge cascade; the BFT
engines once per dequeued tree in the main loop and, for ``bft-m`` and
``bft-am``, once per work item of the merge.  They poll only when the
search has a timeout.  A wall-clock timeout cannot show where a search
stops, so these tests replace the clock the deadline reads: it stands
still until the k-th poll, then jumps past the limit.  A recording run
lists the poll sites in order, k is chosen to land on a main-loop poll or
on a merge poll the engine makes, and the cut run must then

* report ``timed_out`` and not ``complete``;
* return a prefix, in emission order, of the rows of the unbounded run.

A bounded run whose clock never reaches the limit must replay the unbounded
run exactly, and an unbounded run must not read the clock to poll at all.
"""

from __future__ import annotations

import sys

import pytest

import repro._util
from repro.ctp.config import SearchConfig
from repro.ctp.registry import get_algorithm
from repro.graph.datasets import figure1, figure1_seed_sets
from repro.workloads.synthetic import chain_graph

GROW_SITE = "_main_loop"
MERGE_SITE = "_merge_cascade"
BFT_MERGE_SITE = "_merge"

#: The poll sites each engine reaches (plain BFT never merges).
SITES = {
    **{name: (GROW_SITE, MERGE_SITE) for name in ("gam", "esp", "moesp", "lesp", "molesp")},
    "bft": (GROW_SITE,),
    "bft-m": (GROW_SITE, BFT_MERGE_SITE),
    "bft-am": (GROW_SITE, BFT_MERGE_SITE),
}
ALGORITHMS = tuple(SITES)
CUTS = [(name, site) for name, sites in SITES.items() for site in sites]


class PollClock:
    """Stands in for the ``time`` module :mod:`repro._util` reads.

    Reads 0.0, except that the ``expire_at``-th poll (``Deadline.expired``)
    and every later one read far past any limit.  ``polls`` lists, per poll
    in order, the engine function behind it and the results found so far.
    """

    def __init__(self, expire_at=None):
        self.expire_at = expire_at
        self.polls = []

    def monotonic(self) -> float:
        if sys._getframe(1).f_code.co_name != "expired":
            return 0.0  # construction, elapsed(), remaining()
        engine = sys._getframe(2)
        self.polls.append((engine.f_code.co_name, engine.f_locals["self"].stats.results_found))
        if self.expire_at is not None and len(self.polls) >= self.expire_at:
            return 1e9
        return 0.0


def _rows(result_set):
    return [(sorted(r.edges), r.seeds) for r in result_set]


def _counters(result_set):
    stats = result_set.stats.as_dict()
    del stats["elapsed_seconds"]
    return stats


def _search(algorithm, timeout=None):
    # Figure 1: every GAM-family engine emits its results spread over both
    # poll sites (the synthetic Line/Comb/Star points have one result
    # each).  The BFT engines run on chain(5), whose 32 results they find
    # completely, without a max_trees valve, in a few milliseconds.
    if algorithm.startswith("bft"):
        graph, seed_sets = chain_graph(5)
    else:
        graph = figure1()
        seed_sets = figure1_seed_sets(graph)
    return get_algorithm(algorithm).run(graph, seed_sets, SearchConfig(timeout=timeout))


def _run(monkeypatch, algorithm, clock, timeout):
    monkeypatch.setattr(repro._util, "time", clock)
    try:
        return _search(algorithm, timeout)
    finally:
        monkeypatch.undo()


@pytest.fixture(scope="module")
def unbounded():
    return {name: _search(name) for name in ALGORITHMS}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unbounded_run_never_polls(monkeypatch, algorithm, unbounded):
    clock = PollClock()
    result_set = _run(monkeypatch, algorithm, clock, timeout=None)
    assert clock.polls == []
    assert result_set.complete and not result_set.timed_out
    assert _rows(result_set) == _rows(unbounded[algorithm])
    assert _counters(result_set) == _counters(unbounded[algorithm])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bounded_run_that_never_expires_replays_unbounded(monkeypatch, algorithm, unbounded):
    clock = PollClock()
    result_set = _run(monkeypatch, algorithm, clock, timeout=1.0)
    assert {name for name, _ in clock.polls} == set(SITES[algorithm])
    assert result_set.complete and not result_set.timed_out
    assert _rows(result_set) == _rows(unbounded[algorithm])
    assert _counters(result_set) == _counters(unbounded[algorithm])


@pytest.mark.parametrize("algorithm,site", CUTS)
def test_cut_at_kth_poll_returns_prefix(monkeypatch, algorithm, site, unbounded):
    recorder = PollClock()
    _run(monkeypatch, algorithm, recorder, timeout=1.0)
    total = len(unbounded[algorithm])
    # The middle poll of this site among those with results on both sides.
    at_site = [k for k, (name, found) in enumerate(recorder.polls, start=1) if name == site and 0 < found < total]
    k = at_site[len(at_site) // 2]

    clock = PollClock(expire_at=k)
    result_set = _run(monkeypatch, algorithm, clock, timeout=1.0)
    assert len(clock.polls) == k and clock.polls[-1] == recorder.polls[k - 1]
    assert result_set.timed_out and not result_set.complete
    full = _rows(unbounded[algorithm])
    rows = _rows(result_set)
    assert len(rows) == recorder.polls[k - 1][1]
    assert 0 < len(rows) < len(full) and rows == full[: len(rows)]
