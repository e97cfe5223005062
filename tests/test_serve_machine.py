"""A stateful model of a process-mode ``QueryServer`` (ROADMAP item 3(a)).

Hypothesis interleaves queries, ingest batches (below and across the
server's ``compaction_threshold``, set low on the instance) and SIGKILLs
of the live worker processes against a one-worker server on a small
graph, then drains it.  After every step the machine checks:

* every ``ok`` response's rows equal a serial ``evaluate_query`` on the
  read view pinned at the response's ``generation``;
* every non-ok response carries a typed status and an error message;
* the graph generation and the pool's lifetime counters never go back;
* after a request dispatched through the pool, the pool's snapshot
  generation is the graph's current base;
* no ``repro-csr-<pid>-*`` temp file the run made survives ``close()``.

Hangs are left to ``test_faults``: each costs a watchdog wait.
"""

from __future__ import annotations

import glob
import os
import signal
import tempfile

from hypothesis import HealthCheck, event, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.graph.graph import Graph
from repro.query.evaluator import evaluate_query
from repro.serve import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    IngestRequest,
    QueryRequest,
    QueryServer,
)

#: Fixed queries over the seed graph's labels; ``MAX 3`` keeps each search
#: small however far the ingests grow the graph.  The last repeats a CTP,
#: so in-flight dedup and the memo are on the path too.
QUERIES = (
    'SELECT ?w WHERE { CONNECT("N0", "N3") AS ?w MAX 3 }',
    'SELECT ?a ?b WHERE { CONNECT("N0", "N2") AS ?a MAX 3 CONNECT("N1", "N4") AS ?b MAX 3 }',
    'SELECT ?a ?b WHERE { CONNECT("N2", "N5") AS ?a MAX 3 CONNECT("N2", "N5") AS ?b MAX 3 }',
)

#: ``QueryServer.compaction_threshold`` on the machine's instance: a batch
#: of up to six edges lands below it or crosses it.
COMPACTION_THRESHOLD = 4

TYPED_STATUSES = {STATUS_ERROR, STATUS_EXPIRED, STATUS_REJECTED, STATUS_SHED}
MONOTONE_POOL_COUNTERS = (
    "dispatches",
    "respawns",
    "resnapshots",
    "hangs",
    "recycles",
    "compactions",
    "resnapshots_avoided",
)


def _seed_graph() -> Graph:
    graph = Graph("machine")
    nodes = [graph.add_node(f"N{i}", types=("t",)) for i in range(6)]
    for source, target in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)):
        graph.add_edge(nodes[source], nodes[target], "r", 1.0)
    graph.ensure_base()
    return graph


def _auto_snapshots() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), f"repro-csr-{os.getpid()}-*")))


class ServerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.snapshots_before = _auto_snapshots()
        self.graph = _seed_graph()
        self.server = QueryServer(self.graph, workers=1, max_pending=2)
        self.server.compaction_threshold = COMPACTION_THRESHOLD
        self.pool = self.server.pool
        self.generation = self.graph.generation
        self.counters = dict.fromkeys(MONOTONE_POOL_COUNTERS, 0)
        self.added = 0

    @rule(query=st.sampled_from(QUERIES))
    def query(self, query):
        view = self.graph.read_view()
        response = self.server.handle(QueryRequest(query=query))
        if response.status != STATUS_OK:
            assert response.status in TYPED_STATUSES, response.status
            assert response.error
            return
        event(f"modes {sorted(set(response.stats.dispatch_modes))}")
        assert response.stats.generation == view.generation
        serial = evaluate_query(view, query)
        assert response.columns == serial.columns
        assert response.rows == serial.rows
        if response.stats.ctp_count:
            assert self.pool.snapshot_generation == self.graph.base_generation

    @rule(
        new_nodes=st.integers(min_value=0, max_value=2),
        ends=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=6),
    )
    def ingest(self, new_nodes, ends):
        total = self.graph.num_nodes + new_nodes
        nodes = []
        for _ in range(new_nodes):
            nodes.append((f"M{self.added}", "t"))
            self.added += 1
        edges = tuple((s % total, t % total, "r", 1.0) for s, t in ends)
        result = self.server.ingest(IngestRequest(nodes=tuple(nodes), edges=edges))
        assert result.status == STATUS_OK, result.error
        assert result.generation == self.graph.generation
        assert result.delta_size <= COMPACTION_THRESHOLD

    @precondition(lambda self: self.pool._executor is not None)
    @rule()
    def kill_workers(self):
        event(f"kill {len(self.pool._executor._processes)}")
        for pid in list(self.pool._executor._processes):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # killed by an earlier step, not reaped yet
                pass

    @invariant()
    def generations_and_counters_are_monotone(self):
        generation = self.graph.generation
        assert generation >= self.generation
        self.generation = generation
        stats = self.pool.stats()
        for name in MONOTONE_POOL_COUNTERS:
            assert stats[name] >= self.counters[name], (name, stats[name], self.counters[name])
            self.counters[name] = stats[name]

    def teardown(self):
        event(f"respawns {self.pool.respawns} compactions {self.graph.compactions}")
        assert self.server.drain(timeout=30.0)
        assert self.server.closed and self.pool.closed
        assert _auto_snapshots() <= self.snapshots_before


ServerMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServerMachine = ServerMachine.TestCase
