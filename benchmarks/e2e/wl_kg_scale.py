"""``kg_scale`` — 10^5 nodes / 2x10^5 edges: set-up and memory dominate.

Why it exists: it is the 10^5 row of ``BENCH_scale.json`` turned into a
workload.  Build -> ``freeze`` -> ``save_snapshot`` -> ``load_snapshot``
(mmap) is most of the run (set-up is >= 20 % of the wall and
``peak_rss_mb`` is the highest of the five workloads), and the searches
are the opposite of ``ctp_synthetic``: tight-radius m=2 CTPs with tiny
result sets on a huge id space, so the time goes into adjacency access
and per-search structures sized by the graph, not into merging.  The
query layer and the server do nothing here.

The graph and the CTPs are ``repro.workloads.realworld.scale_workload``
at seed 42 (re-assembled from the two public generators, since
``scale_workload`` itself is not exported): a fixed data set, of which the
first four CTPs are searched so that a pass stays under 2 s.  ``--seed``
draws the order of the CTPs in each pass.  ``MAX 4 LIMIT 8`` and
``max_trees=4000`` are count-based bounds, so result sets do not depend
on the wall clock.  The first pass over the freshly mapped CSR is timed
on its own (``backend.first_touch_pass_s``) and belongs to set-up.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.ctp import SearchConfig, SearchStats, evaluate_ctp, validate_result
from repro.graph import freeze, load_snapshot, save_snapshot
from repro.workloads import sample_ctp_workload, scale_free_graph

from harness import Op, Recorder, RunParams, rss_mb
from passes import PassState, PassWorkload, file_record, search_record

DATASET_SEED = 42
NODES, SMOKE_NODES = 100_000, 2_000
#: The first four of the six CTPs behind the 10^5 row of ``BENCH_scale.json``.
NUM_CTPS, SMOKE_CTPS = 4, 3
ALGORITHM = "molesp"
CONFIG = SearchConfig(max_edges=4, limit=8, max_trees=4_000)


def _signature(result_set: Any) -> tuple:
    return (len(result_set), result_set.stats.provenances, result_set.timed_out)


class KgScale(PassWorkload):
    name = "kg_scale"
    #: One set-up is ~8 s here; two keep the run under 30 s.
    setup_repeats = 2

    def build(self, params: RunParams) -> PassState:
        nodes = SMOKE_NODES if params.smoke else NODES
        stages = []

        def stage(name: str, layer: str, call):
            started = time.perf_counter()
            out = call()
            stages.append((name, layer, started, time.perf_counter()))
            return out

        dataset = stage("scale_free_graph", "graph", lambda: scale_free_graph(
            nodes, 2 * nodes, seed=DATASET_SEED, name=f"scale({nodes})"))
        ctps = sample_ctp_workload(
            dataset.graph,
            m_distribution={2: SMOKE_CTPS if params.smoke else NUM_CTPS},
            seed=DATASET_SEED + 1,
            max_radius=2,
            seeds_per_set=(1, 2),
        )
        csr = stage("freeze", "backend", lambda: freeze(dataset.graph))
        rss_after_freeze = rss_mb()
        path = os.path.join(params.work_dir, f"kg-scale-{os.getpid()}.snapshot")
        stage("save_snapshot", "snapshot", lambda: save_snapshot(csr, path))
        snapshot_bytes = os.path.getsize(path)
        edges = csr.num_edges
        # Only the mapped copy is searched: drop the builder-side graphs so
        # peak RSS is what a process serving from the snapshot would hold.
        del dataset, csr
        mapped = stage("load_snapshot", "snapshot", lambda: load_snapshot(path, use_mmap=True))
        ops = [
            Op(f"ctp-{i}", lambda c=ctp: evaluate_ctp(mapped, c, ALGORITHM, config=CONFIG),
               _signature)
            for i, ctp in enumerate(ctps)
        ]
        seconds = {name: end - start for name, _, start, end in stages}
        state = PassState(ops=ops)
        state.extra.update(graph=mapped, ctps=ctps, path=path, stages=stages,
                           rss_before_search=rss_mb())
        first_touch = state.warm_up()
        state.layer = {
            "graph.build_s": seconds["scale_free_graph"],
            "graph.edges_per_s": edges / seconds["scale_free_graph"],
            "backend.freeze_s": seconds["freeze"],
            "backend.rss_mb_after_freeze": rss_after_freeze,
            "backend.first_touch_pass_s": first_touch,
            "snapshot.save_s": seconds["save_snapshot"],
            "snapshot.load_s": seconds["load_snapshot"],
            "snapshot.bytes_per_edge": snapshot_bytes / edges,
        }
        return state

    def teardown(self, state: PassState) -> None:
        path = state.extra.pop("path", None)
        state.extra.pop("graph", None)
        state.ops = []
        state.warm = {}
        if path and os.path.exists(path):
            os.unlink(path)

    def traced_pass(self, state: PassState, recorder: Recorder, order: Sequence[int]) -> Dict[str, Any]:
        for name, layer, start, end in state.extra["stages"]:
            recorder.add(name, layer, start, end, request="setup")
        search_s = 0.0
        runs = []
        for index in order:
            op = state.ops[index]
            with recorder.span("evaluate_ctp", "ctp", request=op.name) as span:
                result_set = op.call()
            search_s += span.end - span.start
            runs.append(result_set.stats)
        return {
            "wall": search_s,
            "searches": len(runs),
            "search_s": search_s,
            "ctp_stage_s": search_s,
            "stats": SearchStats.merged(runs).as_dict(),
        }

    def check(self, state: PassState, expected: Optional[Dict[str, Any]], problems: List[str]) -> set:
        bad = set()
        graph, ctps = state.extra["graph"], state.extra.pop("ctps")
        state.extra.pop("stages")
        for index, ctp in enumerate(ctps):
            name = f"ctp-{index}"
            result_set = state.warm.get(name)
            if result_set is None:
                continue  # already counted as a failed warm-up op
            issues = [p for tree in result_set for p in validate_result(graph, tree, ctp)]
            if result_set.timed_out:
                issues.append("search timed out")
            file_record(state, name, search_record(result_set), issues, expected, problems, bad)
        state.extra.pop("graph")
        return bad


WORKLOAD = KgScale()

