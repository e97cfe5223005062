"""Public API hygiene: exports exist, are documented, and stay stable."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.graph",
    "repro.storage",
    "repro.query",
    "repro.ctp",
    "repro.baselines",
    "repro.workloads",
    "repro.bench",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} needs a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if (inspect.isfunction(item) or inspect.isclass(item)) and not inspect.getdoc(item):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_top_level_surface():
    import repro

    for name in (
        "Graph",
        "GraphBuilder",
        "evaluate_ctp",
        "evaluate_query",
        "parse_query",
        "SearchConfig",
        "WILDCARD",
        "ResultTree",
    ):
        assert name in repro.__all__

    assert repro.__version__


def test_algorithm_classes_have_paper_docs():
    """Each algorithm's docstring must cite its paper section."""
    from repro.ctp import registry

    expected_sections = {
        "bft": "4.1",
        "bft-m": "4.3",
        "bft-am": "4.3",
        "gam": "4.2",
        "esp": "4.4",
        "moesp": "4.5",
        "lesp": "4.6",
        "molesp": "4.7",
    }
    for name, section in expected_sections.items():
        algo_class = registry.ALGORITHMS[name]
        module = importlib.import_module(algo_class.__module__)
        assert section in (module.__doc__ or "") or section in (algo_class.__doc__ or ""), (
            f"{name}: docstring should reference paper Section {section}"
        )


def test_errors_all_exported():
    from repro import errors

    public = [n for n in dir(errors) if n.endswith("Error")]
    import repro

    for name in ("ReproError", "GraphError", "QueryError", "SearchError"):
        assert name in public
        assert hasattr(repro, name)


# ----------------------------------------------------------------------
# one tree representation, one id space, one pool: the retired options
# stay retired
# ----------------------------------------------------------------------
def test_search_config_fields_are_exactly_these():
    import dataclasses

    from repro.ctp import SearchConfig

    assert [spec.name for spec in dataclasses.fields(SearchConfig)] == [
        "uni",
        "labels",
        "max_edges",
        "timeout",
        "deadline",
        "limit",
        "score",
        "top_k",
        "order",
        "balanced_queues",
        "balance_ratio",
        "max_trees",
        "strict_merge2",
        "mo_inject_always",
        "parallelism",
    ]


@pytest.mark.parametrize(
    "retired",
    [
        "interning",
        "dense_ids",
        "backend",
        "shared_context",
        "scheduling",
        "rooted_cache_size",
        "rooted_cache_bytes",
        "ctp_cache_bytes",
    ],
)
def test_retired_representation_flags_are_type_errors(retired):
    from repro.ctp import SearchConfig, SearchContext

    with pytest.raises(TypeError):
        SearchConfig(**{retired: False})
    with pytest.raises(TypeError):
        SearchContext(**{retired: False})


def test_search_state_keeps_only_what_is_read():
    """One count-bounded memo per context, no per-root cache, no byte
    bound, and per-query records that hold facts about their own query
    only: no copy of a CTP report's mode or seconds, no pool-lifetime
    counter."""
    from dataclasses import fields

    from repro.ctp import ResultCache, SearchContext, SearchStats
    from repro.query import QueryResult
    from repro.query.resilience import ResilienceReport
    from repro.serve import ResponseStats

    assert list(inspect.signature(SearchContext).parameters) == ["ctp_cache_size", "thread_safe"]
    assert list(inspect.signature(ResultCache).parameters) == ["maxsize", "thread_safe"]
    with pytest.raises(TypeError):
        ResultCache(4, max_bytes=1)
    assert [spec.name for spec in fields(SearchStats)] == [
        "init_trees",
        "grows",
        "merges_attempted",
        "merges",
        "mo_copies",
        "pruned_history",
        "pruned_filters",
        "trees_kept",
        "queue_pushes",
        "results_found",
        "duplicate_results",
        "merge_buckets_skipped",
        "balanced_pop_scans",
        "pool_sets",
        "pool_union_hits",
        "pool_union_misses",
        "elapsed_seconds",
    ]
    assert [spec.name for spec in fields(QueryResult)] == [
        "columns",
        "rows",
        "graph",
        "timings",
        "ctp_reports",
        "context_stats",
        "resilience",
        "generation",
        "rebalances",
        "rebalanced_seconds",
        "edge_columns",
    ]
    assert [spec.name for spec in fields(ResponseStats)] == [
        "warm_pool",
        "memo_hits",
        "ctp_count",
        "dispatch_modes",
        "deadline_truncated",
        "pending",
        "seconds",
        "hangs",
        "generation",
        "delta_size",
        "compactions",
        "rebalances",
        "rebalanced_seconds",
    ]
    assert [spec.name for spec in fields(ResilienceReport)] == [
        "hangs",
        "respawns",
        "degraded_to",
    ]
    assert list(SearchContext().stats_dict()) == [
        "runs",
        "rejects",
        "generation_flushes",
        "rebinds",
        "memo_carried",
        "pool_sets",
        "pool_union_hits",
        "pool_union_misses",
        "ctp_cache_hits",
        "ctp_cache_misses",
        "ctp_cache_evictions",
    ]


def test_config_fingerprint_has_thirteen_elements():
    from repro.ctp import SearchConfig, SearchContext

    assert len(SearchContext.config_fingerprint(SearchConfig())) == 13


def test_ctp_exports_one_pool():
    import repro.ctp
    from repro.ctp import interning

    assert "FrozenEdgeSets" not in repro.ctp.__all__
    assert "EdgeSetPool" in repro.ctp.__all__
    pool_classes = [
        name
        for name, item in vars(interning).items()
        if inspect.isclass(item) and item.__module__ == interning.__name__ and not name.startswith("_")
    ]
    assert pool_classes == ["EdgeSetPool"]


@pytest.mark.parametrize("command", ["query", "serve"])
@pytest.mark.parametrize("flag", ["--no-interning", "--no-dense-ids", "--parallelism-mode"])
def test_retired_cli_flags_are_argparse_errors(command, flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main([command, flag, 'SELECT ?w WHERE { CONNECT("USA", "France") AS ?w MAX 3 }'])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
