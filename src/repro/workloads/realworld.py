"""Scale-free substitutes for the paper's real-world datasets.

The paper evaluates on a 6M-triple YAGO3 subset and an 18M-triple DBPedia
subset (Sections 5.4.3 and 5.5.2).  Neither is available offline, and a
pure-Python engine targets smaller graphs anyway, so we generate seeded
synthetic stand-ins that preserve what the algorithms are sensitive to:

* **degree skew** — preferential attachment yields the hubs (countries,
  categories) that dominate real knowledge graphs and stress bidirectional
  search;
* **label skew** — edge labels drawn from a Zipf distribution, as
  predicate usage in RDF datasets is heavily skewed;
* **typed entities** — nodes carry types (person, organization, place, ...)
  so the J1-J3 queries of Table 1 can bind seed sets of realistic,
  *very unbalanced* sizes;
* **connectivity** — a preferential spanning pass keeps the graph
  connected, so CTPs between random seeds usually have answers, like the
  entity-to-entity queries of QGSTP's DBPedia workload.

The CTP workload sampler mirrors the paper's query mix: 312 CTPs with
m = 2..6 distributed as 83/98/85/38/8 (Section 5.4.3), sampled around
anchor nodes so results exist within a few hops.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.graph.graph import Graph

#: Predicate vocabulary (Zipf-ranked: earlier labels are more frequent).
EDGE_LABELS = (
    "linksTo",
    "type",
    "locatedIn",
    "bornIn",
    "worksFor",
    "memberOf",
    "created",
    "citizenOf",
    "knows",
    "spouse",
    "owns",
    "investsIn",
    "affiliation",
    "funds",
    "parentOf",
)

NODE_TYPES = ("person", "organization", "place", "work", "event", "category")

#: The paper's CTP workload mix on DBPedia: number of CTPs per m (Sec 5.4.3).
PAPER_M_DISTRIBUTION: Dict[int, int] = {2: 83, 3: 98, 4: 85, 5: 38, 6: 8}


@dataclass
class RealWorldDataset:
    """A generated knowledge-graph substitute."""

    graph: Graph
    name: str
    seed: int
    nodes_by_type: Dict[str, List[int]] = field(default_factory=dict)


def _zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def _weighted_picker(
    rng: random.Random, population: Sequence[str], weights: Sequence[float]
) -> Callable[[], str]:
    """``lambda: rng.choices(population, weights=weights)[0]``, set up once.

    ``Random.choices`` rebuilds the cumulative weights on every call; this
    builds them once and repeats the rest of its arithmetic exactly — one
    ``rng.random()`` scaled by the float total, one ``bisect`` over the
    same bounds — so the draw sequence is bit-identical
    (``tests/test_workloads_realworld.py`` pins a digest of it).
    """
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(population) - 1
    draw = rng.random
    return lambda: population[bisect(cum_weights, draw() * total, 0, hi)]


def scale_free_graph(
    num_nodes: int,
    num_edges: int,
    seed: int = 0,
    name: str = "scale-free",
    edge_labels: Sequence[str] = EDGE_LABELS,
    node_types: Sequence[str] = NODE_TYPES,
) -> RealWorldDataset:
    """Connected preferential-attachment multigraph with skewed labels."""
    if num_nodes < 2:
        raise WorkloadError("need at least 2 nodes")
    if num_edges < num_nodes - 1:
        raise WorkloadError("need at least num_nodes - 1 edges to stay connected")
    rng = random.Random(seed)
    graph = Graph(name)
    pick_type = _weighted_picker(rng, node_types, _zipf_weights(len(node_types), 0.8))
    nodes_by_type: Dict[str, List[int]] = {t: [] for t in node_types}
    for index in range(num_nodes):
        node_type = pick_type()
        node = graph.add_node(f"ent_{index}", types=(node_type,))
        nodes_by_type[node_type].append(node)
    pick_label = _weighted_picker(rng, edge_labels, _zipf_weights(len(edge_labels), 1.0))
    # endpoint pool for preferential attachment (degree-proportional picks)
    pool: List[int] = [0]
    edges_added = 0
    # spanning pass: node i attaches to a preferentially chosen earlier node
    for node in range(1, num_nodes):
        partner = pool[rng.randrange(len(pool))]
        label = pick_label()
        if rng.random() < 0.5:
            graph.add_edge(node, partner, label)
        else:
            graph.add_edge(partner, node, label)
        pool.append(node)
        pool.append(partner)
        edges_added += 1
    # densification pass: preferential endpoints on both sides
    while edges_added < num_edges:
        source = pool[rng.randrange(len(pool))]
        target = pool[rng.randrange(len(pool))]
        if source == target:
            continue
        label = pick_label()
        graph.add_edge(source, target, label)
        pool.append(source)
        pool.append(target)
        edges_added += 1
    return RealWorldDataset(graph=graph, name=name, seed=seed, nodes_by_type=nodes_by_type)


def yago_like(scale: float = 1.0, seed: int = 7) -> RealWorldDataset:
    """YAGO3-subset stand-in (paper: 6M triples; default here: 24k)."""
    num_nodes = max(50, int(8_000 * scale))
    num_edges = max(num_nodes, int(24_000 * scale))
    return scale_free_graph(num_nodes, num_edges, seed=seed, name=f"yago-like(scale={scale})")


def dbpedia_like(scale: float = 1.0, seed: int = 13) -> RealWorldDataset:
    """DBPedia-subset stand-in (paper: 18M triples; default here: 48k)."""
    num_nodes = max(50, int(16_000 * scale))
    num_edges = max(num_nodes, int(48_000 * scale))
    return scale_free_graph(num_nodes, num_edges, seed=seed, name=f"dbpedia-like(scale={scale})")


def scale_workload(
    num_nodes: int,
    seed: int = 0,
    edges_per_node: float = 2.0,
    num_ctps: int = 6,
    max_radius: int = 2,
) -> Tuple[Graph, List[Tuple[Tuple[int, ...], ...]]]:
    """A seeded scale-free graph plus a tight-radius CTP batch, at any size.

    The workload of the million-node scale bench (``python -m repro.bench
    scale``): the graph grows to ``num_nodes`` (the paper's datasets are
    6M/18M triples; the bench runs this at 10^6), while each CTP stays
    *local* — m=2 seed sets sampled inside a radius-``max_radius`` BFS
    ball, the shape real entity-to-entity queries take on large knowledge
    graphs.  That contrast (huge id space, small touched set) is exactly
    what separates dense search-local node ids from legacy global-id
    masks, and everything is seeded so dense/legacy A-B runs see the
    identical graph and CTPs.
    """
    dataset = scale_free_graph(
        num_nodes,
        max(num_nodes - 1, int(num_nodes * edges_per_node)),
        seed=seed,
        name=f"scale({num_nodes})",
    )
    ctps = sample_ctp_workload(
        dataset.graph,
        m_distribution={2: num_ctps},
        seed=seed + 1,
        max_radius=max_radius,
        seeds_per_set=(1, 2),
    )
    return dataset.graph, ctps


def sample_ctp_workload(
    graph: Graph,
    m_distribution: Optional[Dict[int, int]] = None,
    scale: float = 1.0,
    seed: int = 0,
    max_radius: int = 4,
    seeds_per_set: Tuple[int, int] = (1, 3),
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Sample CTPs mirroring the paper's m-distribution (83/98/85/38/8).

    Each CTP is sampled around a random anchor: a BFS ball of radius
    ``max_radius`` is drawn and ``m`` disjoint seed sets are picked inside
    it, so connecting trees exist.  ``scale`` shrinks the per-m counts
    proportionally (at least one CTP per m).
    """
    distribution = m_distribution or PAPER_M_DISTRIBUTION
    rng = random.Random(seed)
    workload: List[Tuple[Tuple[int, ...], ...]] = []
    for m, count in sorted(distribution.items()):
        scaled = max(1, round(count * scale))
        for _ in range(scaled):
            workload.append(_sample_one_ctp(graph, m, rng, max_radius, seeds_per_set))
    return workload


def _sample_one_ctp(
    graph: Graph,
    m: int,
    rng: random.Random,
    max_radius: int,
    seeds_per_set: Tuple[int, int],
) -> Tuple[Tuple[int, ...], ...]:
    from collections import deque

    while True:
        anchor = rng.randrange(graph.num_nodes)
        ball: List[int] = []
        seen = {anchor}
        queue = deque([(anchor, 0)])
        while queue and len(ball) < 40 * m:
            node, depth = queue.popleft()
            ball.append(node)
            if depth >= max_radius:
                continue
            for _, other, _ in graph.adjacent(node):
                if other not in seen:
                    seen.add(other)
                    queue.append((other, depth + 1))
        if len(ball) < m * seeds_per_set[1] + 1:
            continue
        rng.shuffle(ball)
        seed_sets: List[Tuple[int, ...]] = []
        cursor = 0
        for _ in range(m):
            size = rng.randint(*seeds_per_set)
            seed_sets.append(tuple(ball[cursor : cursor + size]))
            cursor += size
        return tuple(seed_sets)


# ----------------------------------------------------------------------
# The J1-J3 queries of Table 1 (Section 5.5.2), adapted to our vocabulary.
# ----------------------------------------------------------------------

def j1_query(ctp_filters: str = "TIMEOUT 10") -> str:
    """J1: BGPs plus 2 CTPs over moderately selective seed sets.

    Uses the generator's most frequent predicates so the conjunctive part
    has embeddings at every scale (the original YAGO labels would be too
    selective on a scaled-down substitute).
    """
    return f"""
    SELECT ?p ?o ?pl ?l1 ?l2 WHERE {{
      ?p linksTo ?o .
      ?o locatedIn ?pl .
      FILTER(type(?p) = "person")
      CONNECT(?p, ?pl) AS ?l1 {ctp_filters}
      CONNECT(?p, ?o, ?pl) AS ?l2 {ctp_filters}
    }}
    """


def j2_query(ctp_filters: str = "MAX 4 TIMEOUT 10") -> str:
    """J2: 2 BGPs and 1 CTP with one very large seed set (all persons)."""
    return f"""
    SELECT ?p ?w ?l WHERE {{
      ?p linksTo ?t .
      ?w created ?x .
      FILTER(type(?p) = "person")
      FILTER(type(?w) = "work")
      CONNECT(?p, ?w) AS ?l {ctp_filters}
    }}
    """


def j3_query(ctp_filters: str = "MAX 3 LIMIT 200 TIMEOUT 10") -> str:
    """J3: a single CTP with an N (wildcard) seed set."""
    return f"""
    SELECT ?e ?l WHERE {{
      CONNECT(?e, *) AS ?l {ctp_filters}
      FILTER(type(?e) = "event")
    }}
    """
