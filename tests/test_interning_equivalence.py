"""The seed implementation's cases, held to the paper's algorithms.

The interning layer (``repro.ctp.interning``) replaces per-tree frozenset
bookkeeping with hash-consed edge-set handles, node bitmasks, and
sat-bucketed merge-partner indexes.  All of that is *representation*: the
rows in emission order, ``complete`` and every search-work counter must be
what the paper's algorithms, run as the spec :mod:`repro.testing.reference`
over plain frozensets, produce.

The cases are the ones the seed frozenset implementation was replayed on:
the full config set on Figure 1 and the random graph, the order-sensitive
core on the structural workloads, every algorithm, each run under the
count-based ``max_trees`` valve of the seed runs (3,000 trees for the BFT
family, 20,000 for the others), so a truncated search is pinned as well.
``tests/test_reference_spec.py`` runs the same graphs without that valve.
"""

from __future__ import annotations

import random

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.registry import ALGORITHMS
from repro.graph.datasets import figure1, figure1_seed_sets, figure3, figure5, figure6
from repro.testing import random_graph, random_seed_sets
from repro.testing.reference import BFT_FAMILY, COUNTERS, Outcome, reference_search
from repro.workloads.synthetic import chain_graph, comb_graph, star_graph


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
        "csr": {"frozen": True},  # the engine runs on graph.freeze()
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


@pytest.mark.parametrize(
    "graph_name,graph,seeds,config_name,overrides,algo_name",
    [pytest.param(*case, id=f"{case[0]}|{case[3]}|{case[5]}") for case in _cases()],
)
def test_matches_seed_golden(graph_name, graph, seeds, config_name, overrides, algo_name):
    """Interned engines do the seed implementation's search, step for step."""
    overrides = dict(overrides)
    engine_graph = graph.freeze() if overrides.pop("frozen", False) else graph
    config = SearchConfig(**overrides, max_trees=3000 if algo_name in BFT_FAMILY else 20000)
    result_set = ALGORITHMS[algo_name]().run(engine_graph, seeds, config)
    got = Outcome(
        [(tree.edges, tree.seeds, tree.weight) for tree in result_set],
        result_set.complete,
        **{name: getattr(result_set.stats, name) for name in COUNTERS},
    )
    assert got == reference_search(algo_name, graph, seeds, config)
