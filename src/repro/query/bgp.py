"""BGP evaluation: computing all embeddings (Definition 2.7).

The paper delegates BGP evaluation to a conjunctive graph query engine
(PostgreSQL in their prototype).  Ours matches each edge pattern against the
graph's label/type indexes — choosing the cheapest access path — and then
joins the per-pattern embedding tables with the relational substrate
(step (A) of Section 3 produces one materialized table ``B_i`` per BGP).

Matching is *compiled* per pattern, not interpreted per candidate edge: the
access path is resolved once into ``(source, edge, target)`` id triples read
off ``adjacent`` / ``edge_endpoints``, the condition that path proves is
dropped, every other ``label(v) = c`` / ``type(v) = c`` becomes set
membership on the index that answers it, and only what is left (``~``,
``<``, ``!=``, properties) goes through :meth:`Condition.test` — once per
*distinct* node.  Only the ``GraphBackend`` read surface is used, so the
dict, CSR and overlay backends take the same code.

**Row order is a contract.**  A table's rows come in access-path order
(edge-label index order, or index-node order then adjacency order) and
filters never reorder them.  Seed sets are the first-seen distinct values
of a BGP column and feed ``LIMIT``-pushed searches, so a different order
is a different query answer.  That is also why the access-path cost keeps
comparing *node* counts (source/target index) with *edge* counts (label
index) although they are not the same unit: any other cost function picks
other paths, and with them other row orders.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.query.ast import BGP, Condition, EdgePattern, Predicate
from repro.storage.relational import natural_join_many
from repro.storage.table import Table, row_picker

#: ``(source node, edge, target node)`` ids of one candidate edge.
Triple = Tuple[int, int, int]


def _is_constant(condition: Condition, prop: str) -> bool:
    return condition.prop == prop and condition.op == "="


def _node_index(graph: Graph, predicate: Predicate) -> Tuple[Optional[List[int]], List[Condition]]:
    """``(ids the predicate's index lists, conditions it leaves unproven)``.

    The index is the one of the first ``label(v) = c`` condition, else of
    the first ``type(v) = c``; without either the ids are ``None``.
    """
    conditions = list(predicate.conditions)
    for prop, lookup in (("label", graph.nodes_with_label), ("type", graph.nodes_with_type)):
        for condition in conditions:
            if _is_constant(condition, prop):
                conditions.remove(condition)
                return lookup(condition.value), conditions
    return None, conditions


def _filter_nodes(graph: Graph, conditions: Sequence[Condition], nodes: Iterable[int]) -> List[int]:
    """The distinct ids of ``nodes`` meeting every condition, first-seen order."""
    nodes = list(dict.fromkeys(nodes))
    residual = []
    for condition in conditions:
        if _is_constant(condition, "label"):
            members = set(graph.nodes_with_label(condition.value))
        elif _is_constant(condition, "type"):
            members = set(graph.nodes_with_type(condition.value))
        else:
            residual.append(condition)
            continue
        nodes = [n for n in nodes if n in members]
    if residual:
        node = graph.node
        nodes = [n for n in nodes if all(condition.test(node(n)) for condition in residual)]
    return nodes


def matching_nodes(graph: Graph, predicate: Predicate, nodes: Optional[Iterable[int]] = None) -> List[int]:
    """The distinct ids of ``nodes`` satisfying ``predicate``, in the order given.

    Without ``nodes``: every node of the graph that satisfies it, listed in
    the order of the predicate's own index (id order when it has none).
    """
    if nodes is not None:
        return _filter_nodes(graph, predicate.conditions, nodes)
    nodes, conditions = _node_index(graph, predicate)
    return _filter_nodes(graph, conditions, graph.node_ids() if nodes is None else nodes)


def _scan(graph: Graph, pattern: EdgePattern) -> Tuple[List[Triple], List[List[Condition]]]:
    """Candidate triples of ``pattern`` via its cheapest access path, plus the
    ``(source, edge, target)`` conditions that path leaves unproven.

    The cost of a path is the length of its index list; ties go to the
    edge-label index, then the source's (see the module docstring for why
    this stays as it is).
    """
    edge_conditions = list(pattern.edge.conditions)
    edge_constant = next((c for c in edge_conditions if _is_constant(c, "label")), None)
    options = []
    if edge_constant is None:
        edge_ids = graph.edge_ids()
    else:
        edge_conditions.remove(edge_constant)
        edge_ids = graph.edges_with_label(edge_constant.value)
        options.append((len(edge_ids), "edge"))
    source_nodes, source_left = _node_index(graph, pattern.source)
    if source_nodes is not None:
        options.append((len(source_nodes), "source"))
    target_nodes, target_left = _node_index(graph, pattern.target)
    if target_nodes is not None:
        options.append((len(target_nodes), "target"))
    best = min(options)[1] if options else "edge"
    unproven = [list(pattern.source.conditions), edge_conditions, list(pattern.target.conditions)]
    if best == "edge":
        triples = [(s, e, t) for e, (s, t) in zip(edge_ids, map(graph.edge_endpoints, edge_ids))]
        return triples, unproven
    # A node path walks adjacency and keeps the edges of the label index
    # (every edge id is in the ``range`` that stands in for "no constant").
    adjacent = graph.adjacent
    labelled = edge_ids if edge_constant is None else set(edge_ids)
    if best == "source":
        unproven[0] = source_left
        triples = [
            (n, e, other)
            for n in source_nodes
            for e, other, outgoing in adjacent(n)
            if outgoing and e in labelled
        ]
    else:
        unproven[2] = target_left
        # Adjacency lists a self-loop once, as outgoing: it is an in-edge too.
        triples = [
            (other, e, n)
            for n in target_nodes
            for e, other, outgoing in adjacent(n)
            if (not outgoing or other == n) and e in labelled
        ]
    return triples, unproven


def candidate_edges(graph: Graph, pattern: EdgePattern) -> List[int]:
    """Edge ids worth testing for ``pattern``, via the cheapest access path."""
    return [edge_id for _, edge_id, _ in _scan(graph, pattern)[0]]


def match_pattern(graph: Graph, pattern: EdgePattern) -> Table:
    """All embeddings of one edge pattern as a table.

    Columns are the pattern's distinct variables; values are node ids for
    source/target and edge ids for the edge variable.  Repeated variables
    (e.g. ``(?x, ?e, ?x)`` self-loops) are enforced as equalities.
    """
    triples, (source_conditions, edge_conditions, target_conditions) = _scan(graph, pattern)
    for condition in edge_conditions:
        if _is_constant(condition, "label"):
            edge_label, label = graph.edge_label, condition.value
            triples = [triple for triple in triples if edge_label(triple[1]) == label]
        else:
            edge = graph.edge
            triples = [triple for triple in triples if condition.test(edge(triple[1]))]
    for position, conditions in ((0, source_conditions), (2, target_conditions)):
        if conditions:
            keep = set(_filter_nodes(graph, conditions, [triple[position] for triple in triples]))
            triples = [triple for triple in triples if triple[position] in keep]
    variables = pattern.variables()
    columns = tuple(dict.fromkeys(variables))
    if len(columns) < 3:
        first = [variables.index(var) for var in variables]
        repeats = [(i, j) for i, j in enumerate(first) if i != j]
        pick = row_picker(sorted(set(first)))
        triples = [pick(triple) for triple in triples if all(triple[i] == triple[j] for i, j in repeats)]
    return Table._derived(columns, triples)


def evaluate_bgp(graph: Graph, bgp: BGP) -> Table:
    """Compute all embeddings of a BGP (the materialized ``B_i`` table).

    Step (A) runs to completion: ``SearchConfig.deadline`` / ``timeout``
    budget the CTP searches of step (B) and do not cover it.
    """
    return natural_join_many([match_pattern(graph, pattern) for pattern in bgp.patterns])
