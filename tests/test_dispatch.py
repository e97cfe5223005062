"""The dispatch protocol against a reference serial loop.

``repro.query.parallel.Dispatch`` is the one implementation of the
evaluator's step (B): memo serve, in-flight dedup, run, ledger settle and
CTP-order memo replay, whatever executes the searches.  Its contract is
"what the serial loop does", so the serial loop is kept **here**, as
~20 lines of get → run → put (:func:`_reference`), and a Hypothesis
property drives the real object against it over random job lists
(duplicate memo keys, unkeyed jobs, replayable and truncated fake result
sets, a pre-seeded memo, caches small enough to evict) × inline and
thread executors.

What is asserted where:

* **always** — every job gets the right result set, ``cache_hit`` and
  ``mode`` agree, every keyed job probes the memo exactly once, the cache
  stays within its bound;
* **whenever the reference evicted nothing** — everything equals the
  serial loop: result identity, ``cache_hit`` flags, ``mode`` stamps,
  ``hits``/``misses``/``evictions`` and the final LRU key order.  (When an
  eviction lands *between* a job's probe and the CTP-order replay no
  dispatch that probes before it runs can equal a loop that interleaves
  them; rows are unaffected, and that case keeps the "always" invariants.)

A fake search is a function of its memo key — same key, same
replayability — as a real one is of (graph, seeds, config).
"""

from __future__ import annotations

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.query.costmodel import DeadlineLedger
from repro.query.parallel import CTPJob, Dispatch
from repro.testing import FakeClock, InlineExecutor

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
MODE = "thread"
KEYS = ("a", "b", "c", "d")


@dataclass(eq=False)
class _FakeResultSet:
    tag: Tuple[Any, ...]
    complete: bool = True
    timed_out: bool = False


def _search(job: CTPJob, truncated: frozenset) -> Tuple[_FakeResultSet, float]:
    cut = (job.memo_key if job.memo_key is not None else job.index) in truncated
    return _FakeResultSet(("ran", job.index), complete=not cut, timed_out=cut), 0.0


def _reference(jobs: List[CTPJob], cache: Any, truncated: frozenset) -> List[Tuple[Any, bool, str]]:
    """The serial evaluator loop: memo get -> search -> memo put, per CTP."""
    outcomes = []
    for job in jobs:
        result_set = cache.get(job.memo_key) if job.memo_key is not None else None
        cache_hit = result_set is not None
        if result_set is None:
            result_set, _ = _search(job, truncated)
            # Only complete, untruncated evaluations are safe to replay.
            if job.memo_key is not None and result_set.complete and not result_set.timed_out:
                cache.put(job.memo_key, result_set)
        outcomes.append((result_set.tag, cache_hit, "memo" if cache_hit else MODE))
    return outcomes


def _seeded_context(maxsize: int, seeded: List[str], thread_safe: bool = False) -> SearchContext:
    context = SearchContext(thread_safe=thread_safe, ctp_cache_size=maxsize)
    for key in seeded:
        context.ctp_cache.put(key, _FakeResultSet(("seed", key)))
    return context


@st.composite
def _cases(draw: Any) -> Tuple[Any, ...]:
    keys: List[Optional[Hashable]] = draw(
        st.lists(st.sampled_from(KEYS + (None,)), min_size=0, max_size=8)
    )
    jobs = [
        CTPJob(index=i, seed_sets=[], config=SearchConfig(), memo_key=key)
        for i, key in enumerate(keys)
    ]
    truncated = frozenset(draw(st.sets(st.sampled_from(KEYS + tuple(range(len(jobs)))))))
    maxsize = draw(st.sampled_from((1, 2, 3, 64)))
    seeded = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=maxsize))
    threads = draw(st.booleans())
    return jobs, truncated, maxsize, seeded, threads


@SETTINGS
@given(case=_cases())
def test_dispatch_equals_the_serial_loop(case):
    jobs, truncated, maxsize, seeded, threads = case

    reference_context = _seeded_context(maxsize, seeded)
    expected = _reference(jobs, reference_context.ctp_cache, truncated)
    want = reference_context.ctp_cache

    context = _seeded_context(maxsize, seeded, thread_safe=threads)
    cache = context.ctp_cache
    probes_before = cache.hits + cache.misses
    executor = ThreadPoolExecutor(max_workers=3) if threads else InlineExecutor()
    dispatch = Dispatch(
        context,
        DeadlineLedger(),
        lambda job: executor.submit(_search, job, truncated),
        MODE,
        shutdown=executor.shutdown,
    )
    outcomes = dispatch.run(jobs)

    # Always: right rows, honest stamps, one probe per keyed job, bounded.
    assert len(outcomes) == len(jobs)
    by_key = {}
    for job in jobs:
        by_key.setdefault(job.memo_key, []).append(job.index)
    for job, outcome in zip(jobs, outcomes):
        assert outcome.mode == ("memo" if outcome.cache_hit else MODE)
        kind, origin = outcome.result_set.tag
        if outcome.cache_hit:
            assert job.memo_key is not None
            assert outcome.result_set.complete and not outcome.result_set.timed_out
            same_search = origin in by_key[job.memo_key] if kind == "ran" else origin == job.memo_key
            assert same_search
        else:
            assert (kind, origin) == ("ran", job.index)
    keyed = sum(1 for job in jobs if job.memo_key is not None)
    assert cache.hits + cache.misses - probes_before == keyed
    assert len(cache) <= maxsize

    # Whenever the serial loop evicted nothing: identical to it, in full.
    if want.evictions == 0:
        got = [(o.result_set.tag, o.cache_hit, o.mode) for o in outcomes]
        assert got == expected
        assert (cache.hits, cache.misses, cache.evictions) == (want.hits, want.misses, 0)
        assert list(cache._data) == list(want._data)


def test_inline_settle_lands_before_the_next_grant_is_read():
    """Serial semantics: a finished CTP's unspent budget reaches the next
    one — so the ledger must be settled when the run ends (the future's
    done-callback), not when ``run()`` collects the outcomes."""
    clock = FakeClock()
    ledger = DeadlineLedger(9.0, started=0.0, indices=[0, 1, 2], workers=1, clock=clock)
    jobs = [
        CTPJob(index=i, seed_sets=[], config=SearchConfig(timeout=ledger.register(i, None)))
        for i in range(3)
    ]
    assert [job.config.timeout for job in jobs] == [3.0, 3.0, 3.0]
    granted = []

    def run(job):
        granted.append(ledger.config_for(job).timeout)
        clock.advance(1.0)  # every CTP finishes 2s under its share
        return _FakeResultSet(("ran", job.index)), 1.0

    executor = InlineExecutor()
    dispatch = Dispatch(None, ledger, lambda job: executor.submit(run, job), "serial")
    outcomes = dispatch.run(jobs)
    # 9s: CTP 0 is granted a third; CTP 1 half of the 8s left (CTP 0 has
    # settled); CTP 2 all of the 7s left.  Unsettled, they would read 3/3/3.
    assert granted == [3.0, 4.0, 7.0]
    assert [args[0].index for _, args in executor.submitted] == [0, 1, 2]
    assert [o.mode for o in outcomes] == ["serial"] * 3


def test_finished_dispatch_is_freed_by_reference_counting():
    """A future's done-callback must not hold the dispatch that holds the
    future: every query would leave its result sets to the cyclic collector."""
    executor = ThreadPoolExecutor(max_workers=2)
    jobs = [CTPJob(index=i, seed_sets=[], config=SearchConfig(), memo_key=i) for i in range(3)]
    gc.collect()
    gc.disable()
    try:
        dispatch = Dispatch(
            _seeded_context(64, []),
            DeadlineLedger(),
            lambda job: executor.submit(_search, job, frozenset()),
            MODE,
            shutdown=executor.shutdown,
        )
        outcomes = dispatch.run(jobs)
        gone = weakref.ref(dispatch)
        del dispatch
        assert gone() is None
        assert len(outcomes) == 3
    finally:
        gc.enable()
