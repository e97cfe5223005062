"""Command-line interface: run EQL queries on graph files.

Examples::

    python -m repro demo
    python -m repro info  --graph data.tsv
    python -m repro query --graph data.tsv "SELECT ?w WHERE { CONNECT(\"A\", \"B\") AS ?w }"
    python -m repro snapshot --graph data.tsv --out data.snapshot
    python -m repro query --snapshot data.snapshot --parallelism 4 --parallelism-mode process "..."
    python -m repro bench fig11 --scale 0.5
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench.cli import main as bench_main
from repro.ctp.config import PARALLELISM_MODES, SearchConfig
from repro.ctp.stats import SearchStats
from repro.errors import ReproError
from repro.graph.datasets import figure1
from repro.graph.io import load_graph_json, load_graph_tsv
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.stats import graph_stats
from repro.query.evaluator import evaluate_query


def _load_graph(path: str):
    if path.endswith(".json"):
        return load_graph_json(path)
    return load_graph_tsv(path)


def _resolve_graph(args: argparse.Namespace):
    """The graph a command should run on: --snapshot, --graph, or Figure 1."""
    snapshot = getattr(args, "snapshot", None)
    if snapshot is not None:
        if args.graph is not None:
            raise ReproError("pass either --graph or --snapshot, not both")
        return load_snapshot(snapshot)
    return figure1() if args.graph is None else _load_graph(args.graph)


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    try:
        base_config = SearchConfig(
            parallelism=args.parallelism,
            parallelism_mode=args.parallelism_mode,
        )
    except ValueError as error:  # bad flag combinations are user errors
        raise ReproError(str(error)) from None
    result = evaluate_query(
        graph,
        args.query,
        algorithm=args.algorithm,
        base_config=base_config,
        default_timeout=args.timeout,
    )
    print(result.format(limit=args.rows))
    timings = result.timings
    print(
        f"\n{len(result)} row(s) | BGP {timings.bgp_seconds * 1000:.1f}ms, "
        f"CTP {timings.ctp_seconds * 1000:.1f}ms, join {timings.join_seconds * 1000:.1f}ms"
    )
    for report in result.ctp_reports:
        memo = " [ctp-cache hit]" if report.cache_hit else ""
        # Surface the dispatch that actually ran (process dispatch can
        # degrade to thread/serial for unpicklable jobs).
        mode = f" [{report.dispatch_mode}]" if args.parallelism > 1 else ""
        print(f"?{report.tree_var}:{mode} {report.result_set.stats.format()}{memo}")
    if args.parallelism > 1 and len(result.ctp_reports) > 1:
        merged = SearchStats.merged(r.result_set.stats for r in result.ctp_reports)
        print(f"all CTPs x{args.parallelism} workers (merged in CTP order): {merged.format()}")
    ctx = result.context_stats
    print(
        f"context: runs={ctx['runs']} pool_sets={ctx['pool_sets']} "
        f"union_hits={ctx['pool_union_hits']} "
        f"ctp_cache={ctx['ctp_cache_hits']}/{ctx['ctp_cache_hits'] + ctx['ctp_cache_misses']} "
        f"carried={ctx['memo_carried']} rooted_hits={ctx['rooted_cache_hits']} seed_cache_hits={ctx['seed_cache_hits']}"
    )
    sched = result.schedule
    print(
        f"schedule: mode {sched.mode_requested}->{sched.mode_selected} "
        f"estimates={[round(e, 1) for e in sched.estimates]} "
        f"order={sched.submit_order} rebalances={sched.rebalances} "
        f"(+{sched.rebalanced_seconds:.3f}s) overlaps={sched.pipeline_overlaps}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    print(graph)
    print(graph_stats(graph).format())
    labels = sorted(graph.edge_labels())
    print(f"edge labels ({len(labels)}): {', '.join(labels[:20])}{'...' if len(labels) > 20 else ''}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    graph = figure1() if args.graph is None else _load_graph(args.graph)
    path = save_snapshot(graph, args.out)
    print(
        f"wrote {path} ({os.path.getsize(path)} bytes): "
        f"{graph.num_nodes} nodes, {graph.num_edges} edges"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run queries through a long-lived :class:`~repro.serve.QueryServer`.

    A CLI stand-in for a transport layer: starts one server (persistent
    worker pool + shared context), prewarms it, then drives the given
    queries from ``--clients`` concurrent client threads, ``--repeat``
    rounds each — the serving shape (many queries, one graph) rather than
    the one-shot ``query`` subcommand.  Prints one line per response and
    the server's counters at the end.

    SIGINT/SIGTERM shut down gracefully: the server drains — in-flight
    requests run to completion, new ones are rejected with a typed
    response — then the pool closes (releasing its workers and the
    auto-snapshot temp file) before the process exits.  A second signal
    during the drain is ignored rather than tearing down mid-request.
    """
    import signal
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import QueryRequest, QueryServer

    graph = _resolve_graph(args)
    try:
        base_config = SearchConfig(
            parallelism=max(args.workers, 1),
            parallelism_mode="process",
        )
    except ValueError as error:
        raise ReproError(str(error)) from None
    requests = [
        QueryRequest(
            query=text,
            deadline=args.deadline,
            limit=args.rows,
            tag=f"q{index}.r{round_}.c{client}",
        )
        for round_ in range(args.repeat)
        for index, text in enumerate(args.queries)
        for client in range(args.clients)
    ]
    failures = 0
    with QueryServer(
        graph,
        algorithm=args.algorithm,
        base_config=base_config,
        workers=args.workers,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        compaction_threshold=(
            None if args.compaction_threshold < 0 else args.compaction_threshold
        ),
    ) as server:
        # Graceful shutdown: the first SIGINT/SIGTERM starts a drain on a
        # helper thread (a handler must not block the main thread, which
        # is collecting responses) — in-flight requests finish, new ones
        # get typed rejections, then the pool closes.  Handlers are
        # restored on the way out; only the main thread may install them.
        signaled = threading.Event()

        def _graceful_shutdown(signum: int, _frame) -> None:
            if signaled.is_set():
                return  # already draining; don't tear down mid-request
            signaled.set()
            print(
                f"\nreceived {signal.Signals(signum).name}: draining in-flight "
                "requests, rejecting new ones...",
                file=sys.stderr,
            )
            threading.Thread(
                target=server.drain, kwargs={"timeout": 60.0}, daemon=True
            ).start()

        previous_handlers = {}
        in_main_thread = threading.current_thread() is threading.main_thread()
        if in_main_thread:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(signum, _graceful_shutdown)
        try:
            print(f"prewarm: healthy={server.prewarm()} workers={server.pool.workers}")
            with ThreadPoolExecutor(max_workers=args.clients, thread_name_prefix="repro-client") as clients:
                responses = list(clients.map(server.handle, requests))
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        for request, response in zip(requests, responses):
            if response.ok:
                stats = response.stats
                print(
                    f"[{request.tag}] ok: {response.total_rows} row(s) in "
                    f"{stats.seconds * 1000:.1f}ms | warm={stats.warm_pool} "
                    f"memo={stats.memo_hits}/{stats.ctp_count} "
                    f"modes={','.join(stats.dispatch_modes)}"
                    + (" [deadline truncated]" if stats.deadline_truncated else "")
                )
            else:
                failures += 1
                print(f"[{request.tag}] {response.status}: {response.error}")
        counters = server.stats()
        if signaled.is_set():
            print("drained: in-flight requests completed, pool closed", file=sys.stderr)
    pool = counters["pool"]
    context = counters["context"]
    print(
        f"\nserved={counters['served']} rejected={counters['rejected']} "
        f"shed={counters['shed']} expired={counters['expired']} "
        f"errors={counters['errors']} | "
        f"pool: dispatches={pool['dispatches']} respawns={pool['respawns']} "
        f"resnapshots={pool['resnapshots']} hangs={pool['hangs']} "
        f"recycles={pool['recycles']} breaker={pool['breaker_state']} | "
        f"delta: size={pool['delta_size']} compactions={pool['compactions']} "
        f"avoided={pool['resnapshots_avoided']} thrash={pool['resnapshot_thrash']} "
        f"generation={counters['generation']} | "
        f"ctp_cache={context['ctp_cache_hits']}/"
        f"{context['ctp_cache_hits'] + context['ctp_cache_misses']}"
    )
    return 1 if failures else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    graph = figure1()
    print("Figure 1 demo graph loaded:", graph)
    query = """
    SELECT ?x ?y ?z ?w WHERE {
      ?x citizenOf "USA" .
      ?y citizenOf "France" .
      ?z citizenOf "France" .
      FILTER(type(?x) = "entrepreneur")
      FILTER(type(?y) = "entrepreneur")
      FILTER(type(?z) = "politician")
      CONNECT(?x, ?y, ?z) AS ?w SCORE size TOP 5
    }
    """
    print("running Q1 (Section 2) with SCORE size TOP 5 ...\n")
    result = evaluate_query(graph, query)
    print(result.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Connection search in graph queries (ICDE 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="evaluate an EQL query over a graph file")
    query.add_argument("query", help="EQL text (SELECT ... WHERE { ... })")
    query.add_argument("--graph", help="TSV triples or JSON graph file (default: the Figure 1 demo graph)")
    query.add_argument("--algorithm", default="molesp", help="CTP algorithm (default molesp)")
    query.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="workers for the query's independent CTP evaluations (default 1 = "
        "serial dispatch; rows are identical at any worker count; must be >= 1)",
    )
    query.add_argument(
        "--parallelism-mode",
        choices=PARALLELISM_MODES,
        default="thread",
        help="how --parallelism fans out: 'thread' (wall-clock overlap for "
        "deadline-bounded CTPs), 'process' (worker processes over an "
        "mmap-shared CSR snapshot; real multi-core overlap for CPU-bound "
        "searches), or 'auto' (cost model picks serial/thread/process per query)",
    )
    query.add_argument(
        "--snapshot",
        help="binary CSR snapshot file to load the graph from (see the snapshot "
        "subcommand); mutually exclusive with --graph, reused by process workers",
    )
    query.add_argument("--timeout", type=float, default=30.0, help="per-CTP timeout in seconds")
    query.add_argument("--rows", type=int, default=25, help="max rows to display")
    query.set_defaults(handler=_cmd_query)

    info = sub.add_parser("info", help="show statistics of a graph file")
    info.add_argument("--graph", help="TSV triples or JSON graph file (default: Figure 1)")
    info.add_argument("--snapshot", help="binary CSR snapshot file (mutually exclusive with --graph)")
    info.set_defaults(handler=_cmd_info)

    snapshot = sub.add_parser(
        "snapshot",
        help="serialize a graph into a binary CSR snapshot (mmap-shareable across processes)",
    )
    snapshot.add_argument("--graph", help="TSV triples or JSON graph file (default: Figure 1)")
    snapshot.add_argument("--out", required=True, help="snapshot file to write")
    snapshot.set_defaults(handler=_cmd_snapshot)

    serve = sub.add_parser(
        "serve",
        help="drive EQL queries through a long-lived query server "
        "(persistent worker pool, shared caches, admission control)",
    )
    serve.add_argument("queries", nargs="+", help="EQL text, one argument per query")
    serve.add_argument("--graph", help="TSV triples or JSON graph file (default: Figure 1)")
    serve.add_argument("--snapshot", help="binary CSR snapshot file (mutually exclusive with --graph)")
    serve.add_argument("--algorithm", default="molesp", help="default CTP algorithm (default molesp)")
    serve.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes in the persistent pool (default: one per core)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=2,
        help="concurrent client threads driving the server (default 2)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="rounds of the query list per client (default 2; round 2+ hits warm "
        "workers and the cross-request memo)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="in-flight request budget; excess requests are rejected, not queued",
    )
    serve.add_argument("--deadline", type=float, help="per-request wall-clock budget in seconds")
    serve.add_argument("--timeout", type=float, default=30.0, help="default per-CTP timeout in seconds")
    serve.add_argument("--rows", type=int, help="per-response row limit (pagination)")
    serve.add_argument(
        "--compaction-threshold",
        type=int,
        default=256,
        help="delta-overlay mutations tolerated before the pool refreezes "
        "base ∪ delta (0 = legacy resnapshot-per-mutation, negative = "
        "never compact; default 256)",
    )
    serve.set_defaults(handler=_cmd_serve)

    demo = sub.add_parser("demo", help="run the paper's Q1 on the Figure 1 graph")
    demo.set_defaults(handler=_cmd_demo)

    bench = sub.add_parser("bench", help="regenerate the paper's tables/figures (see repro.bench)")
    bench.add_argument("rest", nargs=argparse.REMAINDER)
    bench.set_defaults(handler=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
