"""MergeAll's partner lookup returns exactly the buckets a full scan returns.

Algorithm 5 (MergeAll) merges a tree with every tree rooted at its root
that passes Merge2.  The engines file those partners by sat mask
(``_GAMRun.trees_rooted_in``), and Merge2 depends only on a partner's sat,
so :func:`repro.ctp.engine.merge_partner_buckets` picks whole buckets.
The reference is the plain scan: test every bucket at the root.  This
module holds the engine's lookup to it

* directly, over arbitrary sat -> bucket indexes of up to 12 seed sets;
* end to end: GAM, ESP, MoESP, LESP and MoLESP on random multigraphs with
  5-10 seed sets give the same results in emission order and the same
  ``SearchStats`` (bar ``elapsed_seconds``) with the lookup swapped back
  to the scan.  ``tests/test_provenance_golden.py`` pins
  ``merges_attempted`` only on the Line/Comb/Star points, where a root
  rarely holds enough buckets for the lookup to differ from a scan.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.ctp import engine
from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.registry import get_algorithm
from repro.graph.graph import Graph

GAM_FAMILY = ("gam", "esp", "moesp", "lesp", "molesp")
LABELS = ("a", "b", "c")


def scan_partner_buckets(index: Dict[int, List[Any]], sat: int, root_mask: int, full_sat: int) -> List[List[Any]]:
    """The reference: every bucket at the root, tested one by one."""
    return [bucket for bucket_sat, bucket in index.items() if not (sat & bucket_sat) & ~root_mask]


def _record(result_set: Any) -> List[Any]:
    """Everything a row can show, in emission order."""
    return [(r.edges, r.nodes, r.seeds, r.weight, r.score) for r in result_set]


def _counters(result_set: Any) -> dict:
    stats = result_set.stats.as_dict()
    stats.pop("elapsed_seconds")
    return stats


@st.composite
def _lookups(draw: Any) -> Any:
    bits = draw(st.integers(min_value=1, max_value=12), label="seed sets")
    full_sat = (1 << bits) - 1
    mask = st.integers(min_value=0, max_value=full_sat)
    keys = draw(st.lists(mask, max_size=min(80, full_sat + 1), unique=True), label="bucket sats")
    # One distinct list per bucket, so the comparison is by identity.
    index = {key: [key] for key in keys}
    sat = draw(mask, label="sat")
    if draw(st.booleans()):
        # Most seed sets covered: few submasks to probe.
        sat |= full_sat & ~(draw(mask) & draw(mask))
    strict = draw(st.booleans(), label="strict_merge2")
    root_mask = 0 if strict else draw(mask, label="root_mask")
    return index, sat, root_mask, full_sat


@settings(max_examples=2000, deadline=None)
@given(lookup=_lookups())
def test_the_lookup_returns_exactly_the_scanned_buckets(lookup):
    index, sat, root_mask, full_sat = lookup
    got = engine.merge_partner_buckets(index, sat, root_mask, full_sat)
    want = scan_partner_buckets(index, sat, root_mask, full_sat)
    assert sorted(map(id, got)) == sorted(map(id, want))
    allowed = full_sat & ~(sat & ~root_mask)
    event("submask" if (1 << bin(allowed).count("1")) < len(index) else "scan")


@st.composite
def _scenarios(draw: Any) -> Any:
    graph = Graph("partners")
    for index in range(draw(st.integers(min_value=3, max_value=8), label="nodes")):
        graph.add_node(f"n{index}")
    endpoint = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    for _ in range(draw(st.integers(min_value=2, max_value=11), label="edges")):
        # Self-loops and parallel edges are both legal draws.
        graph.add_edge(draw(endpoint), draw(endpoint), draw(st.sampled_from(LABELS)))
    if draw(st.booleans(), label="frozen"):
        graph = graph.freeze()
    algorithm = draw(st.sampled_from(GAM_FAMILY), label="algorithm")
    m = draw(st.integers(min_value=5, max_value=10), label="m")
    seed_sets: List[Any] = [tuple(draw(st.lists(endpoint, min_size=1, max_size=2))) for _ in range(m)]
    if draw(st.integers(0, 4)) == 0:
        seed_sets[draw(st.integers(0, m - 1))] = WILDCARD
    config = SearchConfig(
        max_edges=draw(st.sampled_from([None, None, 3, 4, 5, 6])),
        uni=draw(st.booleans()),
        labels=draw(st.none() | st.frozensets(st.sampled_from(LABELS), min_size=2)),
        balanced_queues=draw(st.sampled_from(["auto", False, True])),
        strict_merge2=draw(st.booleans()),
    )
    return graph, algorithm, seed_sets, config


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_scenarios())
def test_every_gam_engine_searches_as_with_the_scan(scenario):
    graph, algorithm, seed_sets, config = scenario
    lookup = engine.merge_partner_buckets
    lookups = []

    def counting(index, sat, root_mask, full_sat):
        allowed = full_sat & ~(sat & ~root_mask)
        lookups.append((1 << bin(allowed).count("1")) < len(index))
        return lookup(index, sat, root_mask, full_sat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "merge_partner_buckets", counting)
        fast = get_algorithm(algorithm).run(graph, seed_sets, config)
        patch.setattr(engine, "merge_partner_buckets", scan_partner_buckets)
        scanned = get_algorithm(algorithm).run(graph, seed_sets, config)
    assert _record(fast) == _record(scanned)
    assert _counters(fast) == _counters(scanned)
    assert fast.complete == scanned.complete
    event("submask lookups" if any(lookups) else "scans only")
