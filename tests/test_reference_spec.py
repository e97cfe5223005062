"""The eight CTP engines against the paper's algorithms, run as a spec.

:mod:`repro.testing.reference` transcribes Grow, Merge, the Algorithm 4
history check, MergeAll, Mo injection and the BFT loops with frozensets,
dicts and one list per queue.  Each case here runs an engine of
:mod:`repro.ctp` and the spec on the same CTP and asserts equal rows in
emission order (edges, seeds, weight), equal ``complete`` and equal
counters: the eleven :data:`repro.testing.reference.COUNTERS`, from
``init_trees`` and ``grows`` to ``pruned_history`` and ``provenances``.

Three sources of CTPs:

* the matrix: 8 algorithms x 11 configs x the paper's figure graphs, the
  Line, Star and Comb shapes and one random graph;
* a fixed corpus of 64 random multigraphs, under the four UNI x balanced
  combinations;
* a Hypothesis property over :func:`repro.testing.rich_graphs`, whose
  graphs carry parallel edges, self-loops, odd labels and non-unit
  weights, with seed sets that may overlap.

Implementation counters (``merges_attempted``, buckets skipped, pool
sets) are not the paper's; ``tests/test_provenance_golden.py`` pins those
for the GAM family.
"""

from __future__ import annotations

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.ctp.config import SearchConfig
from repro.ctp.registry import ALGORITHMS
from repro.graph.datasets import figure1, figure1_seed_sets, figure3, figure5, figure6
from repro.testing import random_graph, random_seed_sets, rich_graphs
from repro.testing import reference
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
    rnd = random_graph(random.Random(11), 10, 16, num_labels=3)
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


GRAPHS = _graphs()

#: ``csr`` runs the engine on ``graph.freeze()`` and the spec on the graph.
#: ``maxedgesvalve`` is ``MAX`` under a ``max_trees`` valve that does not
#: trip, which switches the distance bound off.
CONFIGS = (
    "default",
    "uni",
    "balanced",
    "limit",
    "maxedges",
    "maxedgesvalve",
    "labels",
    "strict",
    "moalways",
    "csr",
    "maxtrees",
)


def _config(name: str, algorithm: str, labels=(), max_edges: int = 4) -> SearchConfig:
    overrides = {
        "uni": {"uni": True},
        "balanced": {"balanced_queues": True},
        "limit": {"limit": 5},
        "maxedges": {"max_edges": max_edges},
        "maxedgesvalve": {"max_edges": max_edges, "max_trees": 20000},
        "labels": {"labels": frozenset(labels)},
        "strict": {"strict_merge2": True},
        "moalways": {"mo_inject_always": True},
        "maxtrees": {"max_trees": 40},
    }.get(name, {})
    # The BFT family enumerates thousands of trees on the larger graphs: it
    # keeps the 3,000-tree valve of the goldens this suite replaced, except
    # under MAX, whose distance bound the valve would switch off.
    if algorithm in BFT_FAMILY and name not in ("maxedges", "maxtrees"):
        overrides["max_trees"] = 3000
    return SearchConfig(**overrides)


def _engine(algorithm: str, graph, seed_sets, config: SearchConfig) -> Outcome:
    result_set = ALGORITHMS[algorithm]().run(graph, seed_sets, config)
    return Outcome(
        [(tree.edges, tree.seeds, tree.weight) for tree in result_set],
        result_set.complete,
        **{name: getattr(result_set.stats, name) for name in COUNTERS},
    )


def _check(algorithm: str, graph, seed_sets, config_name: str, **config_args) -> None:
    config = _config(config_name, algorithm, **config_args)
    engine_graph = graph.freeze() if config_name == "csr" else graph
    assert _engine(algorithm, engine_graph, seed_sets, config) == reference_search(algorithm, graph, seed_sets, config)


def _labels(graph):
    return sorted({graph.edge_label(edge) for edge in graph.edge_ids()})


@pytest.mark.parametrize(
    "graph_name,config_name,algorithm",
    [
        pytest.param(graph_name, config_name, algorithm, id=f"{graph_name}|{config_name}|{algorithm}")
        for graph_name in GRAPHS
        for config_name in CONFIGS
        for algorithm in ALGORITHMS
    ],
)
def test_engine_matches_spec(graph_name, config_name, algorithm):
    graph, seed_sets = GRAPHS[graph_name]
    _check(algorithm, graph, seed_sets, config_name, labels=_labels(graph)[:2])


#: 64 fixed ``(seed, uni, balanced)`` triples: the seeds drive
#: ``random_graph`` / ``random_seed_sets``; the flags cycle through all
#: four combinations.
RANDOM_CORPUS = [
    (seed, bool(index & 1), bool(index & 2))
    for index, seed in enumerate(random.Random(2023).sample(range(10_001), 64))
]


def _assert_cuts_emit_prefixes(algorithm: str, graph, seed_sets, config: SearchConfig, full: Outcome) -> None:
    """A run cut by ``LIMIT n`` or ``max_trees=n`` emits a prefix, in
    emission order, of the rows of ``full``, the run without the cut;
    ``LIMIT n`` emits exactly n rows."""
    for cut, total in (("limit", len(full.rows)), ("max_trees", full.trees_kept)):
        for n in sorted({1, total - 1}):
            if not 0 < n < total:
                continue
            got = _engine(algorithm, graph, seed_sets, replace(config, **{cut: n}))
            assert not got.complete and got.rows == full.rows[: len(got.rows)], (cut, n)
            assert cut != "limit" or len(got.rows) == n, n


def test_engines_match_spec_on_random_graphs():
    """The engines match the spec on the corpus, and their cut runs are
    prefixes of the runs the spec matched."""
    for seed, uni, balanced in RANDOM_CORPUS:
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(5, 11), rng.randint(6, 18), num_labels=2)
        seed_sets = random_seed_sets(random.Random(seed + 1), graph, rng.randint(2, 3), max_size=2)
        config = SearchConfig(uni=uni, balanced_queues=balanced, max_trees=20000)
        for algorithm in ALGORITHMS:
            got = _engine(algorithm, graph, seed_sets, config)
            assert got == reference_search(algorithm, graph, seed_sets, config), (seed, uni, balanced, algorithm)
            _assert_cuts_emit_prefixes(algorithm, graph, seed_sets, config, got)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_figure1_cut_runs_emit_prefixes(algorithm):
    graph, seed_sets = GRAPHS["fig1"]
    config = _config("default", algorithm)
    _assert_cuts_emit_prefixes(algorithm, graph, seed_sets, config, _engine(algorithm, graph, seed_sets, config))


@st.composite
def _ctps(draw):
    graph = draw(rich_graphs(max_nodes=6, max_edges=10))
    assume(graph.num_nodes)
    node = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    seed_sets = draw(st.lists(st.lists(node, min_size=1, max_size=2), min_size=1, max_size=3))
    return graph, [tuple(seed_set) for seed_set in seed_sets]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ctp=_ctps(),
    algorithm=st.sampled_from(list(ALGORITHMS)),
    config_name=st.sampled_from(CONFIGS),
    max_edges=st.integers(min_value=1, max_value=4),
    labels=st.data(),
)
def test_engines_match_spec_on_rich_graphs(ctp, algorithm, config_name, max_edges, labels):
    graph, seed_sets = ctp
    chosen = labels.draw(st.lists(st.sampled_from(_labels(graph)), max_size=2)) if graph.num_edges else []
    _check(algorithm, graph, seed_sets, config_name, labels=chosen, max_edges=max_edges)


def test_spec_imports_no_engine_code():
    """The spec stays independent: from :mod:`repro.ctp` it may import only
    :mod:`repro.ctp.config` (``SearchConfig`` and the wildcard sentinel)."""
    imported = set()
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the spec"
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    from_ctp = {name for name in imported if name == "repro.ctp" or name.startswith("repro.ctp.")}
    allowed = {name for name in from_ctp if name == "repro.ctp.config" or name.startswith("repro.ctp.config.")}
    assert from_ctp and from_ctp == allowed, from_ctp - allowed


def test_spec_refuses_wildcard_seed_sets():
    from repro.ctp.config import WILDCARD

    graph, seed_sets = GRAPHS["fig1"]
    with pytest.raises(NotImplementedError):
        reference_search("molesp", graph, [seed_sets[0], WILDCARD])
