"""Parameterized synthetic graphs of Figure 8 (plus Figure 2's chain).

All generators return ``(graph, seed_sets)`` where every seed set is a
singleton, matching the paper's setup ("each seed set is of size 1").

* ``Line(m, n_L)`` — m seeds in a line, consecutive seeds separated by
  ``n_L`` intermediary nodes (``s_L = n_L + 1`` edges).  Minimizes the
  number of subtrees for a given size: O((m*n_L)^2) subtrees.
* ``Comb(n_A, n_S, s_L, d_BA)`` — a main line with ``n_A`` bristle anchors
  (each a seed); each bristle has ``n_S`` segments of ``s_L`` edges, each
  segment ending in a seed; ``d_BA`` intermediary nodes between successive
  anchors.  ``m = n_A * (n_S + 1)``.
* ``Star(m, s_L)`` — a central node with ``m`` arms of ``s_L`` edges, a
  seed at the end of each arm.  Maximizes subtree count: O(2^m * s_L^2).
* ``chain(N)`` — Figure 2: ``N+1`` nodes in a line with *two* parallel
  edges between consecutive nodes, so the 2-seed CTP between the endpoints
  has exactly ``2^N`` results (the exponential worst case motivating CTP
  filters and timeouts).

:func:`grouped_star` is a variant of ``Star`` for the serving tests and
the ``chaos`` bench: the arm tips are typed by seed group instead of being
returned as seed sets.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import WorkloadError
from repro.graph.graph import Graph

SeedSets = Tuple[Tuple[int, ...], ...]


def line_graph(m: int, n_l: int, edge_label: str = "e") -> Tuple[Graph, SeedSets]:
    """``Line(m, n_L)``: m singleton seed sets at distance ``n_L + 1``."""
    if m < 2:
        raise WorkloadError("Line needs at least 2 seeds")
    if n_l < 0:
        raise WorkloadError("n_L must be >= 0")
    graph = Graph(f"line(m={m},nL={n_l})")
    seeds: List[int] = [graph.add_node("S0", types=("seed",))]
    for segment in range(1, m):
        previous = seeds[-1]
        for j in range(n_l):
            node = graph.add_node(f"L{segment}_{j}")
            graph.add_edge(previous, node, edge_label)
            previous = node
        seed = graph.add_node(f"S{segment}", types=("seed",))
        graph.add_edge(previous, seed, edge_label)
        seeds.append(seed)
    return graph, tuple((s,) for s in seeds)


def comb_graph(
    n_a: int,
    n_s: int,
    s_l: int,
    d_ba: int | None = None,
    edge_label: str = "e",
) -> Tuple[Graph, SeedSets]:
    """``Comb(n_A, n_S, s_L, d_BA)`` of Figure 8 (top left).

    ``d_BA`` defaults to ``s_L - 1`` intermediary nodes so the anchor
    spacing equals the bristle segment length, which is how the paper's
    sweeps vary a single "distance between the seeds" parameter.
    """
    if n_a < 1 or n_s < 0 or s_l < 1:
        raise WorkloadError("Comb needs n_A >= 1, n_S >= 0, s_L >= 1")
    if d_ba is None:
        d_ba = s_l - 1
    graph = Graph(f"comb(nA={n_a},nS={n_s},sL={s_l},dBA={d_ba})")
    seeds: List[int] = []
    previous_anchor = None
    for a in range(n_a):
        anchor = graph.add_node(f"A{a}", types=("seed",))
        seeds.append(anchor)
        if previous_anchor is not None:
            current = previous_anchor
            for j in range(d_ba):
                node = graph.add_node(f"M{a}_{j}")
                graph.add_edge(current, node, edge_label)
                current = node
            graph.add_edge(current, anchor, edge_label)
        previous_anchor = anchor
        # the bristle: n_S segments of s_L edges, each ending in a seed
        current = anchor
        for segment in range(n_s):
            for j in range(s_l - 1):
                node = graph.add_node(f"B{a}_{segment}_{j}")
                graph.add_edge(current, node, edge_label)
                current = node
            seed = graph.add_node(f"S{a}_{segment}", types=("seed",))
            graph.add_edge(current, seed, edge_label)
            seeds.append(seed)
            current = seed
    return graph, tuple((s,) for s in seeds)


def star_graph(m: int, s_l: int, edge_label: str = "e") -> Tuple[Graph, SeedSets]:
    """``Star(m, s_L)``: central node, m arms of ``s_L`` edges, seeds at tips."""
    if m < 2 or s_l < 1:
        raise WorkloadError("Star needs m >= 2 and s_L >= 1")
    graph = Graph(f"star(m={m},sL={s_l})")
    center = graph.add_node("center")
    seeds: List[int] = []
    for arm in range(m):
        current = center
        for j in range(s_l - 1):
            node = graph.add_node(f"R{arm}_{j}")
            graph.add_edge(current, node, edge_label)
            current = node
        seed = graph.add_node(f"S{arm}", types=("seed",))
        graph.add_edge(current, seed, edge_label)
        seeds.append(seed)
    return graph, tuple((s,) for s in seeds)


def chain_graph(n: int, labels: Tuple[str, str] = ("a", "b")) -> Tuple[Graph, SeedSets]:
    """Figure 2: the chain whose endpoint CTP has ``2^n`` results."""
    if n < 1:
        raise WorkloadError("chain needs at least one segment")
    graph = Graph(f"chain(N={n})")
    first = graph.add_node("1")
    previous = first
    for i in range(2, n + 2):
        node = graph.add_node(str(i))
        graph.add_edge(previous, node, labels[0])
        graph.add_edge(previous, node, labels[1])
        previous = node
    return graph, ((first,), (previous,))


def grouped_star(num_sets: int, tips_per_set: int, arm_length: int) -> Graph:
    """A star whose arm tips carry one type per seed group.

    ``CONNECT`` over two groups is the merge-heavy keyword regime (many
    alternative tips per seed set, all trees meeting at the hub), here
    driven through EQL type predicates so the evaluator derives the seed
    sets itself.
    """
    graph = Graph(f"grouped-star({num_sets}x{tips_per_set},arm={arm_length})")
    center = graph.add_node("center")
    for group in range(num_sets):
        for tip_index in range(tips_per_set):
            current = center
            for j in range(arm_length - 1):
                node = graph.add_node(f"R{group}_{tip_index}_{j}")
                graph.add_edge(current, node, "e")
                current = node
            tip = graph.add_node(f"S{group}_{tip_index}", types=(f"g{group}",))
            graph.add_edge(current, tip, "e")
    return graph
