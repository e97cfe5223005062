"""Shared sweep definitions for the synthetic-graph experiments.

Figures 10 and 11 run the same Line/Comb/Star sweeps (Section 5.3): the
x axis is the seed distance ``s_L`` in 2..10, the series are the seed-set
counts (``m`` in {3, 5, 10} for Line; ``n_A`` in {2, 4, 6} with
``n_S = 2`` for Comb, giving m in {6, 12, 18}).

Scale note: the paper uses m in {3, 5, 10} for Star as well; a Star's
search space is exponential in m (O(2^m * s_L^2) subtrees) and the paper's
testbed allows 10-minute timeouts, so at laptop budgets we default the Star
series to m in {3, 5, 8} — the crossovers and orderings are unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from repro.graph.graph import Graph
from repro.workloads.synthetic import comb_graph, line_graph, star_graph

SeedSets = Tuple[Tuple[int, ...], ...]
GraphPoint = Tuple[str, dict, Graph, SeedSets]


def scaled_sl_values(scale: float) -> List[int]:
    """The paper sweeps s_L = 2..10; scale trims the grid from the top."""
    full = [2, 3, 4, 5, 6, 7, 8, 9, 10]
    if scale >= 1.0:
        return full
    keep = max(2, round(len(full) * scale))
    step = len(full) / keep
    return sorted({full[min(len(full) - 1, int(i * step))] for i in range(keep)})


def synthetic_sweep(scale: float, families: Tuple[str, ...] = ("line", "comb", "star")) -> Iterator[GraphPoint]:
    """Yield (family, params, graph, seeds) for every sweep point."""
    sl_values = scaled_sl_values(scale)
    if "line" in families:
        for m in (3, 5, 10):
            for s_l in sl_values:
                graph, seeds = line_graph(m, s_l - 1)
                yield "line", {"m": m, "sL": s_l}, graph, seeds
    if "comb" in families:
        for n_a in (2, 4, 6):
            for s_l in sl_values:
                graph, seeds = comb_graph(n_a, 2, s_l)
                yield "comb", {"nA": n_a, "m": n_a * 3, "sL": s_l}, graph, seeds
    if "star" in families:
        for m in (3, 5, 8):
            for s_l in sl_values:
                graph, seeds = star_graph(m, s_l)
                yield "star", {"m": m, "sL": s_l}, graph, seeds
