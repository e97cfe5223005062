"""Algorithm registry and the :func:`evaluate_ctp` convenience entry point."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

from repro.ctp.bft import BFTAMSearch, BFTMSearch, BFTSearch
from repro.ctp.config import SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.ctp.results import CTPResultSet
from repro.errors import SearchError
from repro.graph.graph import Graph

#: Every CTP evaluation algorithm studied in the paper, by name.
ALGORITHMS: Dict[str, Type] = {
    "bft": BFTSearch,
    "bft-m": BFTMSearch,
    "bft-am": BFTAMSearch,
    "gam": GAMSearch,
    "esp": ESPSearch,
    "moesp": MoESPSearch,
    "lesp": LESPSearch,
    "molesp": MoLESPSearch,
}

#: Algorithms that are complete for any number of seed sets.
COMPLETE_ALGORITHMS = ("bft", "bft-m", "bft-am", "gam")


def get_algorithm(name: str):
    """Instantiate a CTP algorithm by its paper name (e.g. ``"molesp"``)."""
    try:
        return ALGORITHMS[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise SearchError(f"unknown CTP algorithm {name!r}; known: {known}") from None


def evaluate_ctp(
    graph: Graph,
    seed_sets: Sequence,
    algorithm: str = "molesp",
    config: Optional[SearchConfig] = None,
    context: Optional[SearchContext] = None,
    **config_kwargs,
) -> CTPResultSet:
    """Evaluate a set-based CTP (Definition 2.8) with the named algorithm.

    ``config_kwargs`` are forwarded to :class:`SearchConfig` when no
    explicit ``config`` is given, e.g.::

        evaluate_ctp(g, [s1, s2, s3], "molesp", timeout=5.0, max_edges=8)

    ``context`` optionally shares a query-scoped
    :class:`~repro.ctp.context.SearchContext` (edge-set pool + result
    memo) across several evaluations over the same graph.
    """
    if config is not None and config_kwargs:
        raise SearchError("pass either a SearchConfig or keyword options, not both")
    if config is None:
        config = SearchConfig(**config_kwargs)
    return get_algorithm(algorithm).run(graph, seed_sets, config, context=context)
