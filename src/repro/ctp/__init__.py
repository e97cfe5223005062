"""Connecting Tree Pattern (CTP) evaluation — Section 4 of the paper.

This package implements the full algorithm family studied by the paper:

================  ==========================================================
``bft``           breadth-first tree search (Section 4.1)
``bft-m``         BFT + one-level Merge (Section 4.3)
``bft-am``        BFT + aggressive Merge (Section 4.3)
``gam``           Grow and Aggressive Merge (Section 4.2, after [6])
``esp``           GAM + Edge Set Pruning (Section 4.4) — incomplete
``moesp``         Merge-oriented ESP (Section 4.5) — finds all 2ps results
``lesp``          Limited ESP (Section 4.6) — spares rooted merges
``molesp``        MoESP + LESP combined (Section 4.7) — complete for m <= 3
================  ==========================================================

Entry points: :func:`evaluate_ctp` (by algorithm name) or the algorithm
classes themselves.  ``WILDCARD`` stands for a seed set equal to all graph
nodes (the ``N`` seed sets of Section 4.9).
"""

from repro.ctp.analysis import (
    classify_piece,
    is_p_piecewise_simple,
    molesp_guaranteed,
    result_shape,
    simple_tree_decomposition,
)
from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import ResultCache, SearchContext
from repro.ctp.interning import EdgeSetPool
from repro.ctp.results import CTPResultSet, ResultTree, validate_result
from repro.ctp.stats import SearchStats
from repro.ctp.registry import ALGORITHMS, evaluate_ctp, get_algorithm
from repro.ctp.bft import BFTSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.esp import ESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.lesp import LESPSearch
from repro.ctp.molesp import MoLESPSearch

__all__ = [
    "ALGORITHMS",
    "BFTSearch",
    "CTPResultSet",
    "EdgeSetPool",
    "ESPSearch",
    "GAMSearch",
    "LESPSearch",
    "MoESPSearch",
    "MoLESPSearch",
    "ResultCache",
    "ResultTree",
    "SearchConfig",
    "SearchContext",
    "SearchStats",
    "WILDCARD",
    "classify_piece",
    "evaluate_ctp",
    "get_algorithm",
    "is_p_piecewise_simple",
    "molesp_guaranteed",
    "result_shape",
    "simple_tree_decomposition",
    "validate_result",
]
