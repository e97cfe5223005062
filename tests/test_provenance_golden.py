"""Golden: the search work of the GAM-family engines, counter for counter.

Figure 11 of the paper ties runtime to the number of provenances built, and
``benchmarks/e2e/expected.json`` pins that number on ``ctp_synthetic``.  A
change that only makes each provenance cheaper must leave everything the
search *does* untouched.  This module pins, per case, a digest of the
result rows in emission order and every :class:`~repro.ctp.stats.SearchStats`
counter except ``elapsed_seconds`` — ``merges_attempted`` included.

It is the one golden of engine search work recorded from the current
engines.  What the engines compute (rows in emission order, ``complete``
and the search-work counters, ``grows`` to ``provenances``) is held to
the paper's algorithms by ``tests/test_reference_spec.py``; the counters
of the engines' own data structures (``merges_attempted``,
``merge_buckets_skipped``, ``pool_sets``, ``balanced_pop_scans``) only
here, for the GAM family.

The matrix is the ``ctp_synthetic`` Line/Comb/Star points x the five
GAM-family algorithms x four configs: the default complete enumeration,
and three cut runs (``limit=3``, ``max_trees=150``) or bounded ones
(``max_edges=4``).  A cut run stops at a ``_StopSearch`` raised mid-Grow or
mid-cascade, where a counter that is bumped one statement too early or too
late drifts; the complete runs cannot show that.

Each search runs on its own edge-set pool, so the pool counters are the
run's own.  Regenerate (only on a commit whose engines are trusted) with::

    PYTHONPATH=src python tests/test_provenance_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.ctp.config import SearchConfig
from repro.ctp.registry import get_algorithm
from repro.workloads import comb_graph, line_graph, star_graph

GOLDEN_PATH = Path(__file__).parent / "data" / "provenance_golden.json"

ALGORITHMS = ("gam", "esp", "moesp", "lesp", "molesp")

#: The points of ``benchmarks/e2e/wl_ctp_synthetic.py`` (paper Fig. 10/11),
#: copied so that the golden does not move if the benchmark's points do.
POINTS = (
    ("line", (10, 9)),
    ("line", (6, 9)),
    ("comb", (4, 1, 3)),
    ("comb", (6, 1, 2)),
    ("comb", (4, 2, 2)),
    ("comb", (5, 1, 4)),
    ("comb", (3, 2, 2)),
    ("star", (8, 2)),
    ("star", (7, 4)),
    ("star", (6, 6)),
    ("star", (5, 10)),
)

CONFIGS = {
    "default": {},
    "limit3": {"limit": 3},
    "trees150": {"max_trees": 150},
    "edges4": {"max_edges": 4},
}

_GENERATORS = {"line": line_graph, "comb": comb_graph, "star": star_graph}


def _key(kind, args, config_name, algorithm) -> str:
    return f"{kind}{args}|{config_name}|{algorithm}".replace(" ", "")


def _cases():
    for kind, args in POINTS:
        for config_name in CONFIGS:
            for algorithm in ALGORITHMS:
                yield kind, args, config_name, algorithm


def rows_digest(result_set) -> str:
    """SHA-256 of the result rows in emission order (edges, nodes, seeds, weight)."""
    rows = [
        [sorted(r.edges), sorted(r.nodes), [(-1 if s is None else s) for s in r.seeds], round(r.weight, 9)]
        for r in result_set
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def snapshot(result_set) -> dict:
    stats = result_set.stats.as_dict()
    del stats["elapsed_seconds"]
    return {
        "rows": len(result_set),
        "digest": rows_digest(result_set),
        "stats": stats,
        "complete": result_set.complete,
        "timed_out": result_set.timed_out,
    }


def _run(kind, args, config_name, algorithm):
    graph, seed_sets = _GENERATORS[kind](*args)
    return get_algorithm(algorithm).run(graph, seed_sets, SearchConfig(**CONFIGS[config_name]))


def generate_golden() -> dict:
    return {_key(*case): snapshot(_run(*case)) for case in _cases()}


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen instructions
        pytest.fail(f"missing {GOLDEN_PATH}; regenerate with PYTHONPATH=src python {__file__} --regen")
    return json.loads(GOLDEN_PATH.read_text())


def test_matrix_matches_golden_keys(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("kind,args,config_name,algorithm", [pytest.param(*c, id=_key(*c)) for c in _cases()])
def test_search_work_matches_golden(golden, kind, args, config_name, algorithm):
    """Rows in emission order and every counter replay the recorded run exactly."""
    key = _key(kind, args, config_name, algorithm)
    assert snapshot(_run(kind, args, config_name, algorithm)) == golden[key], key


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(generate_golden(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
