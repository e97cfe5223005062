"""Equivalence suite: the engines still replay the seed implementation.

The interning layer (``repro.ctp.interning``) replaces per-tree frozenset
bookkeeping with hash-consed edge-set handles, node bitmasks, and
sat-bucketed merge-partner indexes.  All of that is *representation*: the
set of results, the recorded seeds/weights, and every order-sensitive
counter (grows, merges, queue pushes, history prunes) must stay exactly
what the seed frozenset implementation produced.

``tests/test_reference_spec.py`` holds rows in emission order,
``complete``, ``results_found`` and ``provenances`` to the paper's
algorithms on the same graphs and configs.  The counters the paper does
not define are what this module adds: ``tests/data/interning_golden.json``
holds, per case, the SHA-256 of the snapshot the pre-interning
implementation produced (results, ``complete``, the algorithm name and
the counters in :data:`SEED_STATS`).  The digests were recorded from code
that no longer exists, so there is no script to regenerate them; a change
that redefines one of these counters must show that everything else still
replays before it re-records a digest.  ``merges_attempted`` is excluded
by design: sat-bucket skipping avoids attempts the linear scan paid for;
the current engines' ``merges_attempted`` is pinned instead by
``tests/test_provenance_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.registry import ALGORITHMS
from repro.graph.datasets import figure1, figure1_seed_sets, figure3, figure5, figure6
from repro.testing import random_graph, random_seed_sets
from repro.workloads.synthetic import chain_graph, comb_graph, star_graph

GOLDEN_PATH = Path(__file__).parent / "data" / "interning_golden.json"

#: The counters the seed implementation kept; newer counters are additive
#: and the digests know nothing of them.
SEED_STATS = (
    "duplicate_results",
    "grows",
    "init_trees",
    "merges",
    "mo_copies",
    "provenances",
    "pruned_filters",
    "pruned_history",
    "queue_pushes",
    "results_found",
    "trees_kept",
)


def _graphs():
    fig1 = figure1()
    g3, s3 = figure3()
    g5, s5 = figure5()
    g6, s6 = figure6()
    chain, chain_seeds = chain_graph(5)
    star, star_seeds = star_graph(4, 2)
    comb, comb_seeds = comb_graph(2, 1, 2)
    rng = random.Random(11)
    rnd = random_graph(rng, 10, 16, num_labels=3)
    rnd_seeds = random_seed_sets(random.Random(12), rnd, 3, max_size=2)
    return {
        "fig1": (fig1, figure1_seed_sets(fig1)),
        "fig3": (g3, s3),
        "fig5": (g5, s5),
        "fig6": (g6, s6),
        "chain5": (chain, chain_seeds),
        "star": (star, star_seeds),
        "comb": (comb, comb_seeds),
        "random": (rnd, rnd_seeds),
    }


def _configs(graph):
    labels = sorted({graph.edge(e).label for e in graph.edge_ids()})[:2]
    return {
        "default": {},
        "uni": {"uni": True},
        "balanced": {"balanced_queues": True},
        "limit": {"limit": 5},
        "maxedges": {"max_edges": 4},
        "labels": {"labels": frozenset(labels)},
        "strict": {"strict_merge2": True},
        "moalways": {"mo_inject_always": True},
        "csr": {"frozen": True},  # the search runs on graph.freeze()
    }


#: Keep the matrix fast: the full config set runs on the two richest
#: workloads; the structural workloads run the order-sensitive core.
CORE_CONFIGS = ("default", "uni", "balanced", "limit")
FULL_GRAPHS = ("fig1", "random")


def _cases():
    for graph_name, (graph, seeds) in _graphs().items():
        config_names = None if graph_name in FULL_GRAPHS else CORE_CONFIGS
        for config_name, overrides in _configs(graph).items():
            if config_names is not None and config_name not in config_names:
                continue
            for algo_name in ALGORITHMS:
                yield graph_name, graph, seeds, config_name, overrides, algo_name


def _snapshot(result_set):
    # JSON-canonical: lists only, so a live snapshot digests exactly as
    # the recorded one did after its round-trip through the golden file.
    results = sorted(
        [
            sorted(r.edges),
            [(-1 if s is None else s) for s in r.seeds],
            round(r.weight, 9),
        ]
        for r in result_set
    )
    stats = result_set.stats.as_dict()
    return {
        "results": results,
        "stats": {k: stats.get(k) for k in SEED_STATS},
        "complete": result_set.complete,
        "algorithm": result_set.algorithm,
    }


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


#: Deterministic run bounds.  ``max_trees`` cuts by *count* (order-stable,
#: unlike a wall-clock timeout), so even truncated searches must replay the
#: seed behaviour exactly — the cut itself is part of what we pin down.
MAX_TREES = {"bft": 3000, "bft-m": 3000, "bft-am": 3000}
DEFAULT_MAX_TREES = 20000


def _run(algo_name, graph, seeds, overrides):
    overrides = dict(overrides)
    if overrides.pop("frozen", False):
        graph = graph.freeze()
    config = SearchConfig(**overrides, max_trees=MAX_TREES.get(algo_name, DEFAULT_MAX_TREES))
    return ALGORITHMS[algo_name]().run(graph, seeds, config)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "graph_name,graph,seeds,config_name,overrides,algo_name",
    [pytest.param(*case, id=f"{case[0]}|{case[3]}|{case[5]}") for case in _cases()],
)
def test_matches_seed_golden(golden, graph_name, graph, seeds, config_name, overrides, algo_name):
    """Interned engines replay the seed implementation byte for byte."""
    key = f"{graph_name}|{config_name}|{algo_name}"
    got = _snapshot(_run(algo_name, graph, seeds, overrides))
    assert _digest(got) == golden[key], f"{key}: interned engine diverged from seed behaviour"
