"""Query-scoped SearchContext: sharing is reuse, never a semantics change.

Three layers:

* unit tests of :class:`~repro.ctp.context.ResultCache` (the eviction
  bound) and :class:`~repro.ctp.context.SearchContext` (adoption rules,
  handle interning);
* engine-level tests that re-running a search inside one context serves
  pool unions and rooted results from the shared state while producing
  byte-identical result sets;
* evaluator-level equivalence: the query-scoped context against the
  pool-per-CTP evaluation it replaced, across the golden-matrix
  configurations — the rows recorded from ``shared_context=False`` before
  that switch was retired (``tests/data/knobs_golden.json``), and a
  context-less engine run per CTP kept here as the live reference — plus
  cache-hit counter assertions on multi-CTP overlapping-seed queries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.context import ResultCache, SearchContext
from repro.ctp.interning import EdgeSetPool
from repro.ctp.molesp import MoLESPSearch
from repro.ctp.registry import evaluate_ctp
from repro.ctp.results import ResultTree
from repro.graph.datasets import figure1
from repro.graph.graph import Graph
from repro.query.bgp import evaluate_bgp
from repro.query.evaluator import (
    _seed_sets_for_ctp,
    config_for_ctp,
    derive_binding_values,
    evaluate_query,
)
from repro.query.parser import parse_query
from repro.testing import query_record, result_set_record
from repro.workloads.synthetic import grouped_star

Q1 = """
SELECT ?x ?y ?z ?w
WHERE {
  ?x citizenOf "USA" .
  ?y citizenOf "France" .
  ?z citizenOf "France" .
  FILTER(type(?x) = "entrepreneur")
  FILTER(type(?y) = "entrepreneur")
  FILTER(type(?z) = "politician")
  CONNECT(?x, ?y, ?z) AS ?w
}
"""

TWO_CTP = """
SELECT ?x ?w1 ?w2 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "National Liberal Party") AS ?w2 MAX 2
}
"""

DUP_CTP = """
SELECT ?x ?w1 ?w2 WHERE {
  ?x founded "OrgB" .
  CONNECT(?x, "France") AS ?w1 MAX 3
  CONNECT(?x, "France") AS ?w2 MAX 3
}
"""

WILDCARD_Q = """
SELECT ?x ?w WHERE {
  CONNECT(?x, *) AS ?w MAX 2
  FILTER(type(?x) = "politician")
}
"""


def canonical_rows(result):
    """Row identity with trees collapsed to (edges, seeds, weight)."""
    rows = [
        tuple(
            (tuple(sorted(v.edges)), v.seeds, round(v.weight, 9))
            if isinstance(v, ResultTree)
            else v
            for v in row
        )
        for row in result.rows
    ]
    return sorted(rows)


# ----------------------------------------------------------------------
# ResultCache: the eviction bound
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_bound(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None  # the oldest entry was evicted

    def test_lru_order_hits_refresh(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes least recently used
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_none_rejected(self):
        cache = ResultCache(2)
        with pytest.raises(ValueError):
            cache.put("a", None)

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(0)


# ----------------------------------------------------------------------
# SearchContext: adoption rules and handles
# ----------------------------------------------------------------------
class TestSearchContext:
    def test_adopt_binds_first_graph(self, fig1):
        context = SearchContext()
        pool = context.adopt(fig1)
        assert isinstance(pool, EdgeSetPool)
        assert context.adopt(fig1) is pool
        assert context.runs == 2

    def test_adopt_rejects_other_graph(self, fig1):
        context = SearchContext()
        assert context.adopt(fig1) is not None
        other = Graph("other")
        assert context.adopt(other) is None
        assert context.rejects == 1

    def test_fingerprint_distinguishes_configs(self):
        fingerprint = SearchContext.config_fingerprint
        assert fingerprint(SearchConfig()) == fingerprint(SearchConfig())
        assert fingerprint(SearchConfig()) != fingerprint(SearchConfig(max_edges=3))
        assert fingerprint(SearchConfig()) != fingerprint(SearchConfig(uni=True))
        # Dispatch is representation-only: same fingerprint.
        assert fingerprint(SearchConfig()) == fingerprint(SearchConfig(parallelism=4))


# ----------------------------------------------------------------------
# Engine-level sharing: identical outcomes, shared work
# ----------------------------------------------------------------------
class TestEngineContextSharing:
    def test_second_run_reuses_pool(self, fig1, fig1_seeds):
        context = SearchContext()
        config = SearchConfig()
        first = MoLESPSearch().run(fig1, fig1_seeds, config, context=context)
        second = MoLESPSearch().run(fig1, fig1_seeds, config, context=context)
        assert [r.edges for r in second] == [r.edges for r in first]
        assert [r.seeds for r in second] == [r.seeds for r in first]
        # Every edge set the second run derives was already interned.
        assert second.stats.pool_sets == 0
        assert second.stats.pool_union_hits > 0
        assert context.runs == 2

    def test_shared_run_matches_private_run(self, fig1, fig1_seeds):
        context = SearchContext()
        config = SearchConfig()
        shared = MoLESPSearch().run(fig1, fig1_seeds, config, context=context)
        private = MoLESPSearch().run(fig1, fig1_seeds, config)
        assert [r.edges for r in shared] == [r.edges for r in private]
        assert [r.seeds for r in shared] == [r.seeds for r in private]
        assert [r.weight for r in shared] == [r.weight for r in private]
        # Order-sensitive search counters are unchanged by sharing.
        for key in ("grows", "merges", "trees_kept", "results_found", "pruned_history"):
            assert getattr(shared.stats, key) == getattr(private.stats, key)

    def test_incompatible_context_falls_back(self, fig1, fig1_seeds):
        context = SearchContext()
        context.adopt(Graph("other"))  # bound to another graph's lineage
        result = MoLESPSearch().run(fig1, fig1_seeds, context=context)
        baseline = MoLESPSearch().run(fig1, fig1_seeds)
        assert context.rejects == 1
        assert [r.edges for r in result] == [r.edges for r in baseline]

    def test_evaluate_ctp_accepts_context(self, fig1, fig1_seeds):
        context = SearchContext()
        first = evaluate_ctp(fig1, fig1_seeds, "molesp", context=context)
        second = evaluate_ctp(fig1, fig1_seeds, "molesp", context=context)
        assert context.runs == 2
        assert second.stats.pool_sets == 0
        assert [r.edges for r in first] == [r.edges for r in second]


# ----------------------------------------------------------------------
# Evaluator-level equivalence: shared context vs pool per CTP
# ----------------------------------------------------------------------
QUERIES = {
    "q1": Q1,
    "q1-uni": Q1.replace("AS ?w", "AS ?w UNI"),
    "q1-max": Q1.replace("AS ?w", "AS ?w MAX 3"),
    "q1-label": Q1.replace("AS ?w", 'AS ?w LABEL("citizenOf", "parentOf")'),
    "q1-top": Q1.replace("AS ?w", "AS ?w SCORE size TOP 5"),
    "two-ctp": TWO_CTP,
    "dup-ctp": DUP_CTP,
    "wildcard": WILDCARD_Q,
}

#: Config overrides per matrix column; ``csr`` evaluates on ``fig1.freeze()``.
CONFIGS = {
    "default": {},
    "csr": {},
    "balanced": {"balanced_queues": True},
}

ALGORITHMS = ("molesp", "gam")


def _cases():
    for query_name, query in QUERIES.items():
        for config_name, overrides in CONFIGS.items():
            for algo in ALGORITHMS:
                if algo == "gam" and (config_name != "default" or query_name not in ("q1", "two-ctp")):
                    continue  # keep the matrix fast; gam is the completeness cross-check
                yield query_name, query, config_name, overrides, algo


def _star_query(targets, connects) -> str:
    """``connects`` CONNECTs from seed group g0 of a :func:`grouped_star`:
    all to g1 over shared variables (``targets == 1``: whole-CTP repeats),
    or each to its own group (seed-set overlap only)."""
    ends = [f"b{j % targets}" for j in range(connects)]
    filters = ['FILTER(type(?a) = "g0")']
    filters += [f'FILTER(type(?b{t}) = "g{t + 1}")' for t in range(targets)]
    ctps = [f"CONNECT(?a, ?{end}) AS ?w{j}" for j, end in enumerate(ends)]
    head = " ".join(f"?w{j}" for j in range(connects))
    return f"SELECT ?a {head} WHERE {{ {' '.join(filters + ctps)} }}"


#: The workloads of the retired ``repro.bench query-context`` at its smoke
#: scale (``fig1-dup-ctp`` there is ``dup-ctp`` above): memo, overlap and
#: single-CTP control regimes on grouped stars.
STAR_WORKLOADS = {
    "dup-3-ctps": ((2, 2, 2), _star_query(1, 3)),
    "dup-5-ctps": ((2, 2, 2), _star_query(1, 5)),
    "overlap-2-ctps": ((3, 2, 3), _star_query(2, 2)),
    "single-ctp": ((2, 2, 2), _star_query(1, 1)),
}

#: ``tests/data/knobs_golden.json``, section ``"query_context"``: the
#: record (:func:`repro.testing.query_record`) of every case below —
#: recorded through the retired ``SearchConfig(shared_context=False)``
#: (a private pool per CTP, no memo).
GOLDEN_PATH = Path(__file__).parent / "data" / "knobs_golden.json"


def _golden_records():
    fig1 = figure1()
    for query_name, query, config_name, overrides, algo in _cases():
        graph = fig1.freeze() if config_name == "csr" else fig1
        result = evaluate_query(graph, query, algorithm=algo, base_config=SearchConfig(**overrides))
        yield f"{query_name}|{config_name}|{algo}", query_record(result)
    yield "two-ctp|default|bft-am", query_record(evaluate_query(fig1, TWO_CTP, algorithm="bft-am"))
    for name, (shape, query) in STAR_WORKLOADS.items():
        yield f"{name}|default|molesp", query_record(evaluate_query(grouped_star(*shape), query))


def _context_less_ctps(graph, query, algo, base_config=SearchConfig()):
    """Step (B) without a context: one private-pool engine run per CTP."""
    parsed = parse_query(query)
    bindings = derive_binding_values([evaluate_bgp(graph, bgp) for bgp in parsed.bgps()])
    for ctp in parsed.ctps:
        seed_sets = _seed_sets_for_ctp(graph, ctp, bindings)[0]
        config = config_for_ctp(ctp.filters, base_config, None)
        yield evaluate_ctp(graph, seed_sets, algo, config=config)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["query_context"]


@pytest.mark.parametrize(
    "query_name,query,config_name,overrides,algo",
    [pytest.param(*case, id=f"{case[0]}|{case[2]}|{case[4]}") for case in _cases()],
)
def test_shared_context_row_equivalence(
    fig1, golden, query_name, query, config_name, overrides, algo
):
    """Shared-context evaluation is row-for-row the pool-per-CTP evaluation."""
    graph = fig1.freeze() if config_name == "csr" else fig1
    config = SearchConfig(**overrides)
    shared = evaluate_query(graph, query, algorithm=algo, base_config=config)
    assert query_record(shared) == golden[f"{query_name}|{config_name}|{algo}"]
    private = list(_context_less_ctps(graph, query, algo, config))
    assert len(private) == len(shared.ctp_reports)
    for report, reference in zip(shared.ctp_reports, private):
        assert result_set_record(report.result_set) == result_set_record(reference)
        assert [r.weight for r in report.result_set] == [r.weight for r in reference]


def test_bft_shared_context_equivalence(fig1, golden):
    shared = evaluate_query(fig1, TWO_CTP, algorithm="bft-am")
    assert query_record(shared) == golden["two-ctp|default|bft-am"]
    for report, reference in zip(shared.ctp_reports, _context_less_ctps(fig1, TWO_CTP, "bft-am")):
        assert result_set_record(report.result_set) == result_set_record(reference)
    assert shared.context_stats["runs"] == 2


@pytest.mark.parametrize("name", sorted(STAR_WORKLOADS))
def test_star_workloads_match_pool_per_ctp_golden(golden, name):
    shape, query = STAR_WORKLOADS[name]
    graph = grouped_star(*shape)
    result = evaluate_query(graph, query)
    assert query_record(result) == golden[f"{name}|default|molesp"]
    for report, reference in zip(result.ctp_reports, _context_less_ctps(graph, query, "molesp")):
        assert result_set_record(report.result_set) == result_set_record(reference)


# ----------------------------------------------------------------------
# Cache-hit accounting on multi-CTP queries
# ----------------------------------------------------------------------
class TestCacheCounters:
    def test_duplicate_ctp_is_memo_hit(self, fig1):
        result = evaluate_query(fig1, DUP_CTP)
        first, second = result.ctp_reports
        assert not first.cache_hit
        assert second.cache_hit
        assert second.result_set is first.result_set
        stats = result.context_stats
        assert stats["ctp_cache_hits"] == 1
        assert stats["runs"] == 1  # only the first CTP ran a search
        assert stats["seed_cache_hits"] == 2  # both seed sets re-derived from cache

    def test_overlapping_seed_ctps_share_pool(self, fig1):
        result = evaluate_query(fig1, TWO_CTP)
        assert [r.cache_hit for r in result.ctp_reports] == [False, False]
        stats = result.context_stats
        assert stats["runs"] == 2
        assert stats["ctp_cache_hits"] == 0
        assert stats["seed_cache_hits"] == 1  # the shared ?x seed set
        # The second CTP re-derives edge sets around the shared ?x seeds.
        assert stats["pool_union_hits"] > 0

    def test_limit_truncated_ctp_not_memoized(self, fig1):
        query = DUP_CTP.replace("MAX 3", "MAX 3 LIMIT 1")
        result = evaluate_query(fig1, query)
        assert [r.cache_hit for r in result.ctp_reports] == [False, False]
        assert result.context_stats["ctp_cache_hits"] == 0

    def test_no_shared_context_reports(self, fig1):
        """No report says whether a context was shared: one always is."""
        result = evaluate_query(fig1, DUP_CTP)
        assert result.context_stats["runs"] == 1
        assert not any(hasattr(report, "shared_context") for report in result.ctp_reports)

    def test_explicit_context_amortizes_across_queries(self, fig1):
        context = SearchContext()
        first = evaluate_query(fig1, TWO_CTP, context=context)
        second = evaluate_query(fig1, TWO_CTP, context=context)
        assert canonical_rows(first) == canonical_rows(second)
        # The second query's CTPs are straight memo hits.
        assert all(r.cache_hit for r in second.ctp_reports)
        assert second.context_stats["ctp_cache_hits"] == 2

    def test_deadline_bearing_query_is_a_memo_hit(self, fig1):
        """Regression: the key is taken before the deadline share is written
        into ``timeout``, so a deadline does not make every request unique
        (a plain ``timeout`` never did)."""
        for config in (SearchConfig(deadline=60.0), SearchConfig(timeout=60.0)):
            context = SearchContext()
            first = evaluate_query(fig1, TWO_CTP, base_config=config, context=context)
            second = evaluate_query(fig1, TWO_CTP, base_config=config, context=context)
            assert [r.cache_hit for r in first.ctp_reports] == [False, False]
            assert [r.cache_hit for r in second.ctp_reports] == [True, True]
            assert canonical_rows(first) == canonical_rows(second)

    def test_cross_graph_context_never_serves_stale_rows(self):
        """Regression: the memo key carries the graph by identity, so an
        explicit context reused on a *different* graph must re-run the
        search instead of replaying the first graph's result sets."""
        sparse = Graph("sparse")
        a1, b1, x1 = sparse.add_node("A"), sparse.add_node("B"), sparse.add_node("X")
        sparse.add_edge(a1, x1, "e")
        sparse.add_edge(x1, b1, "e")
        dense = Graph("dense")
        a2, b2 = dense.add_node("A"), dense.add_node("B")
        for _ in range(3):
            mid = dense.add_node("M")
            dense.add_edge(a2, mid, "e")
            dense.add_edge(mid, b2, "e")
        query = 'SELECT ?w WHERE { CONNECT("A", "B") AS ?w }'
        context = SearchContext()
        first = evaluate_query(sparse, query, context=context)
        second = evaluate_query(dense, query, context=context)
        assert len(first) == 1
        assert len(second) == 3  # not the sparse graph's cached single row
        assert not second.ctp_reports[0].cache_hit
        assert context.rejects == 1  # pool adoption refused the second graph

    def test_mutated_graph_invalidates_memo(self):
        """Regression: growing the (append-only) graph between queries that
        share an explicit context must invalidate the cross-CTP memo —
        graph identity alone is not enough."""
        graph = Graph("growing")
        a, b = graph.add_node("A"), graph.add_node("B")
        mid = graph.add_node("M")
        graph.add_edge(a, mid, "e")
        graph.add_edge(mid, b, "e")
        query = 'SELECT ?w WHERE { CONNECT("A", "B") AS ?w }'
        context = SearchContext()
        first = evaluate_query(graph, query, context=context)
        assert len(first) == 1
        mid2 = graph.add_node("M2")
        graph.add_edge(a, mid2, "e")
        graph.add_edge(mid2, b, "e")
        second = evaluate_query(graph, query, context=context)
        assert not second.ctp_reports[0].cache_hit
        assert len(second) == 2  # the new connection is found, not the stale set

    def test_different_filters_not_conflated(self, fig1):
        query = DUP_CTP.replace("AS ?w2 MAX 3", "AS ?w2 MAX 2")
        result = evaluate_query(fig1, query)
        first, second = result.ctp_reports
        assert not second.cache_hit  # different config fingerprint
        assert max(r.size for r in first.result_set) <= 3
        # The tighter MAX excludes every 3-edge connection: the differing
        # result set proves the memo did not conflate the two configs.
        assert len(second.result_set) == 0


if __name__ == "__main__":
    if "--regen" in sys.argv:
        records = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        records["query_context"] = dict(_golden_records())
        GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
