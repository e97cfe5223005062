"""Equivalence suite: interned tree state must not change any search outcome.

The interning layer (``repro.ctp.interning``) replaces per-tree frozenset
bookkeeping with hash-consed edge-set handles, node bitmasks, and
sat-bucketed merge-partner indexes.  All of that is *representation*: the
set of results, the recorded seeds/weights, and every order-sensitive
counter (grows, merges, queue pushes, history prunes) must stay exactly
what the seed frozenset implementation produced.

The protection is a **golden file** (``tests/data/interning_golden.json``)
captured from the pre-interning implementation; every GAM-family variant
and every BFT variant is replayed over the same workload matrix and
compared field by field (``merges_attempted`` is excluded by design:
sat-bucket skipping avoids attempts the linear scan paid for).  Random
multigraphs are covered the same way by the recorded corpus of
``tests/test_interning.py``
(``test_interned_engines_match_fallback_on_random_graphs``).

Regenerate the golden file (only meaningful on a commit whose engines are
trusted) with::

    PYTHONPATH=src python tests/test_interning_equivalence.py --regen

When a PR *redefines* one counter (PR 12: ``queue_pushes`` counts heap
entries — one per tree — instead of one per adjacent edge), re-record that
counter alone; the script refuses to write if any other golden field of
any case (rows, other counters, completeness) differs from the live run::

    PYTHONPATH=src python tests/test_interning_equivalence.py --rerecord queue_pushes
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.ctp.bft import BFTAMSearch, BFTMSearch, BFTSearch
from repro.ctp.config import SearchConfig
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.graph.datasets import figure1, figure1_seed_sets, figure3, figure5, figure6
from repro.testing import random_graph, random_seed_sets
from repro.workloads.synthetic import chain_graph, comb_graph, star_graph

GOLDEN_PATH = Path(__file__).parent / "data" / "interning_golden.json"

ALGORITHMS = {
    "gam": GAMSearch,
    "esp": ESPSearch,
    "moesp": MoESPSearch,
    "lesp": LESPSearch,
    "molesp": MoLESPSearch,
    "bft": BFTSearch,
    "bft-m": BFTMSearch,
    "bft-am": BFTAMSearch,
}

#: Stats that may legitimately differ: sat-bucket indexing skips partner
#: scans wholesale (merges_attempted), and timing is timing.
UNSTABLE_STATS = {"merges_attempted", "elapsed_seconds"}


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
    # JSON-canonical: lists only, so live snapshots compare equal to the
    # golden file after a round-trip.
    results = sorted(
        [
            sorted(r.edges),
            [(-1 if s is None else s) for s in r.seeds],
            round(r.weight, 9),
        ]
        for r in result_set
    )
    stats = {
        k: v for k, v in result_set.stats.as_dict().items() if k not in UNSTABLE_STATS
    }
    return {
        "results": results,
        "stats": stats,
        "complete": result_set.complete,
        "algorithm": result_set.algorithm,
    }


#: Deterministic run bounds.  ``max_trees`` cuts by *count* (order-stable,
#: unlike a wall-clock timeout), so even truncated searches must replay the
#: seed behaviour exactly — the cut itself is part of what we pin down.
MAX_TREES = {"bft": 3000, "bft-m": 3000, "bft-am": 3000}
DEFAULT_MAX_TREES = 20000


def _run(algo_name, graph, seeds, overrides, **extra):
    extra.setdefault("max_trees", MAX_TREES.get(algo_name, DEFAULT_MAX_TREES))
    overrides = dict(overrides)
    if overrides.pop("frozen", False):
        graph = graph.freeze()
    config = SearchConfig(**overrides, **extra)
    return ALGORITHMS[algo_name]().run(graph, seeds, config)


def generate_golden() -> dict:
    golden = {}
    for graph_name, graph, seeds, config_name, overrides, algo_name in _cases():
        key = f"{graph_name}|{config_name}|{algo_name}"
        golden[key] = _snapshot(_run(algo_name, graph, seeds, overrides))
    return golden


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen instructions
        pytest.fail(
            f"missing {GOLDEN_PATH}; regenerate with "
            "PYTHONPATH=src python tests/test_interning_equivalence.py --regen"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "graph_name,graph,seeds,config_name,overrides,algo_name",
    [pytest.param(*case, id=f"{case[0]}|{case[3]}|{case[5]}") for case in _cases()],
)
def test_matches_seed_golden(golden, graph_name, graph, seeds, config_name, overrides, algo_name):
    """Interned engines replay the seed implementation byte for byte."""
    key = f"{graph_name}|{config_name}|{algo_name}"
    expected = golden[key]
    got = _snapshot(_run(algo_name, graph, seeds, overrides))
    # The golden file predates the interning layer: compare only the stat
    # counters it knows about (new pool counters are additive).
    got["stats"] = {k: got["stats"].get(k) for k in expected["stats"]}
    assert got == expected, f"{key}: interned engine diverged from seed behaviour"


def rerecord_stat(field: str) -> int:
    """Rewrite ``stats[field]`` of every golden case from a live run.

    Every other golden field must match the live run exactly, else nothing
    is written.  Returns the number of cases whose ``field`` changed.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    live = generate_golden()
    if live.keys() != golden.keys():
        raise SystemExit("case matrix changed; nothing written")
    changed = 0
    for key, expected in golden.items():
        got = live[key]
        got["stats"] = {k: got["stats"].get(k) for k in expected["stats"]}
        new_value = got["stats"][field]
        got["stats"][field] = expected["stats"][field]
        if got != expected:
            raise SystemExit(f"{key}: fields other than stats.{field} differ; nothing written")
        changed += new_value != expected["stats"][field]
        expected["stats"][field] = new_value
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True))
    return changed


if __name__ == "__main__":
    import sys

    if "--rerecord" in sys.argv:
        name = sys.argv[sys.argv.index("--rerecord") + 1]
        count = rerecord_stat(name)
        print(f"re-recorded stats.{name} in {count} of {len(list(_cases()))} cases; all other fields identical")
    elif "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(generate_golden(), indent=1, sort_keys=True))
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
