"""Property and unit tests for the edge-set interning layer.

``EdgeSetPool`` (repro.ctp.interning) is the foundation the GAM-family
bookkeeping now stands on, so it gets the strongest tests in the suite:

* Hypothesis-driven model checks — every pool operation is mirrored
  against plain frozenset arithmetic on random workloads;
* hash-consing exactness — equal sets always intern to the same handle,
  distinct sets never share one, regardless of construction path
  (union1 vs union2 vs intern), including associativity/commutativity;
* fingerprint hygiene — no 64-bit Zobrist collisions on generated
  workloads (collisions are *handled*, but should be unobservable);
* isolation — pools are engine-local: runs never share handles, and a
  second run cannot perturb the first run's pool or results;
* the engine-level structures riding on the pool: the sat-bucketed merge
  index, the balanced-queue size heap, and the pool telemetry counters;
* the engines against digests recorded from the seed frozenset
  representation on a fixed corpus of random multigraphs.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctp import interning as interning_module
from repro.ctp.bft import BFTAMSearch, BFTMSearch, BFTSearch
from repro.ctp.config import SearchConfig
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.context import SearchContext, approx_bytes
from repro.ctp.interning import EdgeSetPool, splitmix64
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.ctp.tree import make_grow, make_init
from repro.graph.datasets import figure1, figure1_seed_sets
from repro.graph.graph import Graph
from repro.testing import random_graph, random_seed_sets
from repro.workloads.synthetic import chain_graph, star_graph

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

GAM_FAMILY = (GAMSearch, ESPSearch, MoESPSearch, LESPSearch, MoLESPSearch)
BFT_FAMILY = (BFTSearch, BFTMSearch, BFTAMSearch)


# ----------------------------------------------------------------------
# pool basics
# ----------------------------------------------------------------------
class TestPoolBasics:
    def test_empty_handle_is_zero_and_falsy(self):
        pool = EdgeSetPool()
        assert pool.EMPTY == 0
        assert not pool.EMPTY
        assert pool.edges(pool.EMPTY) == frozenset()
        assert pool.size(pool.EMPTY) == 0
        assert pool.fingerprint(pool.EMPTY) == 0

    def test_union1_interns_and_memoizes(self):
        pool = EdgeSetPool()
        a = pool.union1(pool.EMPTY, 7)
        assert pool.edges(a) == frozenset({7})
        assert pool.size(a) == 1
        assert (pool.union_hits, pool.union_misses) == (0, 1)  # one set materialized
        assert pool.union1(pool.EMPTY, 7) == a  # answered by the interned set
        assert (pool.union_hits, pool.union_misses) == (1, 1)

    def test_union1_with_present_edge_is_identity(self):
        pool = EdgeSetPool()
        a = pool.union1(pool.EMPTY, 3)
        assert pool.union1(a, 3) == a

    def test_union2_identity_and_empty(self):
        pool = EdgeSetPool()
        a = pool.intern([1, 2])
        assert pool.union2(a, a) == a
        assert pool.union2(a, pool.EMPTY) == a
        assert pool.union2(pool.EMPTY, a) == a

    def test_same_set_same_handle_across_paths(self):
        pool = EdgeSetPool()
        via_union1 = pool.union1(pool.union1(pool.EMPTY, 1), 2)
        via_intern = pool.intern([2, 1])
        via_union2 = pool.union2(pool.intern([1]), pool.intern([2]))
        assert via_union1 == via_intern == via_union2

    def test_distinct_sets_distinct_handles(self):
        pool = EdgeSetPool()
        handles = {pool.intern(s) for s in ([1], [2], [1, 2], [1, 3], [])}
        assert len(handles) == 5

    def test_overlapping_union2_fingerprint_is_exact(self):
        pool = EdgeSetPool()
        a = pool.intern([1, 2, 3])
        b = pool.intern([2, 3, 4])
        u = pool.union2(a, b)
        assert pool.edges(u) == frozenset({1, 2, 3, 4})
        # The union must be indistinguishable from a directly interned set.
        assert pool.intern([1, 2, 3, 4]) == u
        assert pool.fingerprint(u) == pool.fingerprint(pool.intern([4, 3, 2, 1]))

    @pytest.mark.parametrize("thread_safe", [False, True], ids=["plain", "thread_safe"])
    def test_footprint_follows_sets_held_not_unions_answered(self, thread_safe):
        """Deriving sets the pool already holds — through every Grow and
        every disjoint Merge that produces them — stores nothing: a
        long-lived pool on a static graph is bounded by its distinct sets."""
        pool = EdgeSetPool(thread_safe)
        ids = range(100, 108)
        subsets = [frozenset(c) for r in range(9) for c in itertools.combinations(ids, r)]
        handle = {s: pool.intern(s) for s in subsets}
        held, nbytes, hits = len(pool), approx_bytes(pool), pool.union_hits
        assert held == 256
        calls = 0
        for s in subsets:
            for edge_id in s ^ frozenset(ids):
                assert pool.union1(handle[s], edge_id) == handle[s | {edge_id}]
                calls += 1
        assert calls == 1024
        for s1 in subsets:
            for s2 in subsets:
                if s1 and s2 and s1.isdisjoint(s2):
                    assert pool.union2(handle[s1], handle[s2]) == handle[s1 | s2]
                    calls += 1
        assert len(pool) == held
        # The only thing that changed is the value of the hit counter.
        assert approx_bytes(pool) - nbytes <= sys.getsizeof(pool.union_hits)
        assert pool.union_hits - hits == calls

    def test_splitmix64_deterministic(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(1) != splitmix64(2)
        values = {splitmix64(i) for i in range(10_000)}
        assert len(values) == 10_000  # no collisions in the code stream


# ----------------------------------------------------------------------
# Hypothesis: the pool against the frozenset model
# ----------------------------------------------------------------------
@st.composite
def pool_programs(draw):
    """A random program of union1/union2/intern operations."""
    num_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(num_ops):
        kind = draw(st.sampled_from(("union1", "union2", "intern")))
        if kind == "union1":
            ops.append(("union1", draw(st.integers(0, 200))))
        elif kind == "union2":
            ops.append(("union2", draw(st.integers(0, 10_000))))
        else:
            ops.append(("intern", draw(st.lists(st.integers(0, 200), max_size=12))))
    return ops


@SETTINGS
@given(pool_programs())
def test_pool_matches_frozenset_model(program):
    """Every handle's materialized set equals the frozenset-model value."""
    pool = EdgeSetPool()
    handles = [pool.EMPTY]
    model = {pool.EMPTY: frozenset()}
    for op in program:
        if op[0] == "union1":
            base = handles[op[1] % len(handles)]
            out = pool.union1(base, op[1])
            expected = model[base] | {op[1]}
        elif op[0] == "union2":
            a = handles[op[1] % len(handles)]
            b = handles[(op[1] // 7) % len(handles)]
            out = pool.union2(a, b)
            expected = model[a] | model[b]
        else:
            out = pool.intern(op[1])
            expected = frozenset(op[1])
        assert pool.edges(out) == expected
        assert pool.size(out) == len(expected)
        previous = model.get(out)
        assert previous is None or previous == expected  # handles never alias
        model[out] = expected
        handles.append(out)
    # Hash-consing exactness: one handle per distinct set, and re-interning
    # any materialized set returns its existing handle.
    by_set = {}
    for handle, edges in model.items():
        assert by_set.setdefault(edges, handle) == handle
        assert pool.intern(edges) == handle
    # 64-bit Zobrist fingerprints should never collide on workloads this
    # size; collisions are survivable but must stay unobservable.
    assert pool.collisions == 0


@SETTINGS
@given(pool_programs(), pool_programs())
def test_pool_runs_are_isolated(left, right):
    """Interleaving two pools never lets one contaminate the other."""

    def replay(pool, program):
        handles = [pool.EMPTY]
        for op in program:
            if op[0] == "union1":
                handles.append(pool.union1(handles[op[1] % len(handles)], op[1]))
            elif op[0] == "union2":
                handles.append(
                    pool.union2(handles[op[1] % len(handles)], handles[(op[1] // 7) % len(handles)])
                )
            else:
                handles.append(pool.intern(op[1]))
        return [pool.edges(h) for h in handles]

    solo_left = replay(EdgeSetPool(), left)
    solo_right = replay(EdgeSetPool(), right)
    pool_a, pool_b = EdgeSetPool(), EdgeSetPool()
    assert replay(pool_a, left) == solo_left
    assert replay(pool_b, right) == solo_right
    # Replaying on a *used* pool still yields the same sets (ids may differ).
    assert replay(pool_a, right) == solo_right


@SETTINGS
@given(st.lists(st.frozensets(st.integers(0, 500), max_size=10), min_size=3, max_size=12))
def test_union2_associative_and_commutative(sets):
    pool = EdgeSetPool()
    handles = [pool.intern(s) for s in sets]
    for a in handles[:4]:
        for b in handles[:4]:
            assert pool.union2(a, b) == pool.union2(b, a)
            for c in handles[:4]:
                assert pool.union2(pool.union2(a, b), c) == pool.union2(a, pool.union2(b, c))


# ----------------------------------------------------------------------
# trees on the pool
# ----------------------------------------------------------------------
class TestTreeHandles:
    def test_grow_produces_interned_handles(self):
        pool = EdgeSetPool()
        base = make_init(pool, 0, 0b1, uni=False, node_bit=1)
        assert base.eset == pool.EMPTY
        assert base.node_mask == 1
        grown = make_grow(base, 10, 1, 0, False, 1.0, outgoing=True, uni=False, node_bit=2)
        assert grown.edges == frozenset({10})
        assert grown.node_mask == 0b11
        again = make_grow(base, 10, 1, 0, False, 1.0, outgoing=True, uni=False, node_bit=2)
        assert again.eset == grown.eset  # hash-consed, not merely equal

    def test_rooted_key_is_int_pair(self):
        pool = EdgeSetPool()
        base = make_init(pool, 3, 1, uni=False, node_bit=1)
        grown = make_grow(base, 5, 4, 0, False, 1.0, outgoing=True, uni=False, node_bit=2)
        root, eset = grown.rooted_key()
        assert isinstance(root, int) and isinstance(eset, int)


# ----------------------------------------------------------------------
# engine-level: telemetry, bucket index, balanced pops, isolation
# ----------------------------------------------------------------------
def _counting(function, calls):
    """``function``, appending its positional arguments to ``calls`` first."""

    @functools.wraps(function)
    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted


class TestEngineIntegration:
    def test_pool_telemetry_reported(self, monkeypatch):
        unions = []
        for name in ("union1", "union2"):
            monkeypatch.setattr(EdgeSetPool, name, _counting(getattr(EdgeSetPool, name), unions))
        graph, seeds = chain_graph(6)
        stats = MoLESPSearch().run(graph, seeds, SearchConfig()).stats
        # Every union the search made was either answered by a set the pool
        # already held or materialized one; the private pool started with
        # EMPTY only.
        assert stats.pool_union_hits + stats.pool_union_misses == len(unions) > 0
        assert stats.pool_union_misses == stats.pool_sets - 1 > 0
        # The chain re-derives the same edge sets through many different
        # union pairs: hash-consing answers most unions without building.
        assert stats.pool_union_hits > stats.pool_union_misses

    def test_merge_buckets_skipped_on_star(self):
        graph, seeds = star_graph(5, 2)
        stats = MoLESPSearch().run(graph, seeds, SearchConfig()).stats
        assert stats.merge_buckets_skipped > 0

    def test_balanced_pop_scans_counted(self):
        fig1 = figure1()
        seeds = figure1_seed_sets(fig1)
        balanced = GAMSearch().run(fig1, seeds, SearchConfig(balanced_queues=True)).stats
        single = GAMSearch().run(fig1, seeds, SearchConfig(balanced_queues=False)).stats
        assert balanced.balanced_pop_scans >= balanced.grows > 0
        assert single.balanced_pop_scans == 0

    def test_repeat_runs_identical(self):
        """Each run owns a fresh pool: repeated runs cannot interfere."""
        graph, seeds = star_graph(4, 2)
        algorithm = MoLESPSearch()
        first = algorithm.run(graph, seeds, SearchConfig())
        second = algorithm.run(graph, seeds, SearchConfig())
        assert first.edge_sets() == second.edge_sets()
        assert first.stats.as_dict().keys() == second.stats.as_dict().keys()
        assert first.stats.pool_sets == second.stats.pool_sets


# ----------------------------------------------------------------------
# the engines vs the recorded frozenset fallback, on random multigraphs
# ----------------------------------------------------------------------
def _outcome(result_set):
    stats = result_set.stats
    return (
        sorted((tuple(sorted(r.edges)), r.seeds, round(r.weight, 9)) for r in result_set),
        stats.grows,
        stats.merges,
        stats.trees_kept,
        stats.mo_copies,
        stats.queue_pushes,
        stats.results_found,
        result_set.complete,
    )


#: 64 fixed ``(seed, uni, balanced)`` triples: the seeds drive
#: ``random_graph``/``random_seed_sets``; the two flags cycle through all
#: four combinations.
RANDOM_CORPUS = [
    (seed, bool(index & 1), bool(index & 2))
    for index, seed in enumerate(random.Random(2023).sample(range(10_001), 64))
]
RANDOM_CORPUS_GOLDEN = Path(__file__).parent / "data" / "random_graphs_golden.json"


def _corpus_digests():
    """SHA-256 of every algorithm's canonical ``_outcome`` per corpus triple."""
    digests = {}
    for seed, uni, balanced in RANDOM_CORPUS:
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(5, 11), rng.randint(6, 18), num_labels=2)
        seed_sets = random_seed_sets(random.Random(seed + 1), graph, rng.randint(2, 3), max_size=2)
        config = SearchConfig(uni=uni, balanced_queues=balanced, max_trees=20000)
        digests[f"{seed}|{uni}|{balanced}"] = {
            cls.name: hashlib.sha256(
                json.dumps(_outcome(cls().run(graph, seed_sets, config))).encode()
            ).hexdigest()
            for cls in GAM_FAMILY + BFT_FAMILY
        }
    return digests


def test_interned_engines_match_fallback_on_random_graphs():
    """Rows and order-sensitive counters equal the frozenset fallback's.

    The fallback side is *recorded*: ``random_graphs_golden.json`` holds
    the digests the seed representation — frozenset edge sets, linear
    partner scans, global-id node masks — produced on this corpus at the
    commit that deleted it.  ``python tests/test_interning.py --regen``
    rewrites the file from the current engines (only meaningful on a
    commit whose engines are trusted).
    """
    assert _corpus_digests() == json.loads(RANDOM_CORPUS_GOLDEN.read_text())


# ----------------------------------------------------------------------
# id-space independence: a pool costs what the search touches
# ----------------------------------------------------------------------
PAD_EDGES = 200_000


def _line(graph, length=6):
    nodes = [graph.add_node(f"L{i}") for i in range(length + 1)]
    for left, right in zip(nodes, nodes[1:]):
        graph.add_edge(left, right, "e")
    return ((nodes[0],), (nodes[-1],))


def _star(graph, arms=4, arm_length=2):
    center = graph.add_node("center")
    tips = []
    for arm in range(arms):
        current = center
        for j in range(arm_length):
            node = graph.add_node(f"R{arm}_{j}")
            graph.add_edge(current, node, "e")
            current = node
        tips.append(current)
    return tuple((tip,) for tip in tips)


@functools.lru_cache(maxsize=None)
def _padded(pad_edges):
    """A Line and a Star in one graph that first received ``pad_edges``
    unrelated edges, so every edge id a search touches is >= pad_edges.
    Returns the graph and the seed sets of each shape."""
    graph = Graph("padded")
    if pad_edges:
        a, b = graph.add_node("pad-a"), graph.add_node("pad-b")
        for _ in range(pad_edges):
            graph.add_edge(a, b, "pad")
    return graph, {"line": _line(graph), "star": _star(graph)}


@pytest.fixture
def count_splitmix(monkeypatch):
    calls = []

    def counting(index):
        calls.append(index)
        return splitmix64(index)

    monkeypatch.setattr(interning_module, "splitmix64", counting)
    return calls


class TestIdSpaceIndependence:
    @pytest.mark.parametrize("shape", ["line", "star"])
    def test_search_cost_ignores_untouched_edge_ids(self, shape, count_splitmix, monkeypatch):
        grows = []
        monkeypatch.setattr(EdgeSetPool, "union1", _counting(EdgeSetPool.union1, grows))
        outcomes = []
        for pad_edges in (0, PAD_EDGES):
            graph, seeds_of = _padded(pad_edges)
            seed_sets = seeds_of[shape]
            context = SearchContext()
            del count_splitmix[:], grows[:]
            result_set = MoLESPSearch().run(graph, seed_sets, SearchConfig(), context=context)
            assert context.rejects == 0  # the pool measured is the pool searched
            assert min(count_splitmix) >= pad_edges  # the touched ids are the large ones
            rows = sorted(sorted(e - pad_edges for e in r.edges) for r in result_set)
            outcomes.append(
                (rows, result_set.stats.provenances, len(count_splitmix), approx_bytes(context.pool))
            )
        (rows, provenances, codes, nbytes), (p_rows, p_provenances, p_codes, p_nbytes) = outcomes
        assert (rows, provenances) == (p_rows, p_provenances) and rows
        # One code per Grow (the search never re-adds a tree edge, so no
        # union1 is an identity), whether or not the grown set was already
        # interned — not one per edge id below the largest touched.
        assert codes == p_codes == len(grows)
        # Ids < 257 are CPython's shared small ints, larger ones are 28-byte
        # objects of their own: a constant per touched edge, nothing per pad.
        assert abs(p_nbytes - nbytes) <= 64 * (graph.num_edges - PAD_EDGES) + 1024

    @pytest.mark.parametrize("thread_safe", [False, True], ids=["plain", "thread_safe"])
    def test_huge_edge_id_is_constant_cost(self, thread_safe, count_splitmix):
        """Nothing packs an edge id into a fixed width: any non-negative
        id costs one code and one record, through every constructor."""
        for edge_id in (10**9, 2**40, 2**63 - 1):
            pool = EdgeSetPool(thread_safe)
            other = pool.intern([3])
            before = approx_bytes(pool)
            del count_splitmix[:]
            grown = pool.union1(pool.EMPTY, edge_id)
            assert count_splitmix == [edge_id]
            assert pool.edges(grown) == frozenset({edge_id})
            assert pool.fingerprint(grown) == splitmix64(edge_id)
            merged = pool.union2(other, grown)
            assert pool.union2(grown, other) == merged == pool.intern([edge_id, 3])
            assert pool.edges(merged) == frozenset({3, edge_id})
            assert pool.fingerprint(merged) == splitmix64(3) ^ splitmix64(edge_id)
            assert pool.intern([edge_id]) == grown and len(pool) == 4
            assert approx_bytes(pool) - before < 1024

    def test_sharded_pools_one_handle_per_set_under_eight_threads(self):
        pool = EdgeSetPool(thread_safe=True)
        chains = [[10**6 * (c + 1) + i for i in range(12)] for c in range(6)]
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        seen = [dict() for _ in range(num_threads)]
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for chain in chains[tid % 3 :] + chains[: tid % 3]:
                    handle = pool.EMPTY
                    for i, edge_id in enumerate(chain):
                        handle = pool.union1(handle, edge_id)
                        seen[tid][frozenset(chain[: i + 1])] = handle
                    whole = pool.union2(pool.intern(chain[:5]), pool.intern(chain[5:]))
                    seen[tid][frozenset(chain)] = whole if whole == handle else -1
            except Exception as error:  # pragma: no cover - only on real races
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(num_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside the miss paths
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(observed == seen[0] for observed in seen[1:])
        for edges, handle in seen[0].items():
            assert pool.edges(handle) == edges
            expected = 0
            for edge_id in edges:
                expected ^= splitmix64(edge_id)
            assert pool.fingerprint(handle) == expected
        stored = [pool.edges(h) for h in range(len(pool))]
        assert len(set(stored)) == len(stored)  # no set was interned twice


if __name__ == "__main__":
    if "--regen" in sys.argv:
        RANDOM_CORPUS_GOLDEN.write_text(json.dumps(_corpus_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {RANDOM_CORPUS_GOLDEN}")
    else:
        print(__doc__)
