"""EQL query evaluation — the three-step strategy of Section 3.

(A) evaluate every BGP into a materialized table ``B_i``;
(B) for every CTP, derive each seed set from the ``B_i`` binding its
    variable (or from the graph when the variable is free), then run a CTP
    search algorithm with the CTP's filters pushed into the search;
(C) natural-join the ``B_i`` and ``CTP_j`` tables and project on the head.

The evaluator reports per-phase timings because the paper does too (e.g.
Section 5.5.2: "MoLESP took around 30% of the total time, the rest being
spent ... in the BGP evaluation and final joins").

Step (B) runs inside one **query-scoped search context**
(:class:`~repro.ctp.context.SearchContext`, enabled by
``SearchConfig(shared_context=True)``, the default): every CTP evaluation
adopts the same edge-set pool (edge sets a sibling CTP interned are memo
hits, not fresh allocations), rooted-tree results are cached per
``(root, eset handle, config fingerprint)``, and whole *complete* CTP
result sets are memoized across CTPs — a CONNECT repeated under several
tree variables (or re-evaluated across BGP embeddings) runs once.  The
context is representation and reuse only: rows are identical to the
pool-per-CTP path (``shared_context=False``), which ``python -m
repro.bench query-context`` keeps measurable as the A/B baseline.

Step (B)'s per-CTP searches are *dispatched* through
:mod:`repro.query.parallel`: ``SearchConfig(parallelism=N)`` fans the
query's independent CTP evaluations out to N worker threads over a
thread-safe context (sharded pool, locked caches), with in-flight
deduplication of repeated CTPs standing in for the serial memo order;
``parallelism_mode="process"`` fans out to worker *processes* instead,
each loading the graph once from an mmap-shared CSR snapshot
(:mod:`repro.graph.snapshot`) — real multi-core overlap for CPU-bound
complete searches under the GIL.
Dispatch is representation-only too — rows are bit-identical to serial
evaluation regardless of worker count (``python -m repro.bench parallel``
A/Bs the worker counts and re-checks equality).  The batch counterpart
:func:`~repro.query.parallel.evaluate_queries` runs many queries against
one shared context for cross-query memo hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import SearchContext
from repro.ctp.results import CTPResultSet, ResultTree, tree_leaves
from repro.errors import EvaluationError
from repro.graph.graph import Graph
from repro.query.ast import CTP, CTPFilters, EQLQuery, Predicate
from repro.query.bgp import evaluate_bgp
from repro.query.costmodel import (
    CTPCostEstimator,
    DeadlineLedger,
    QuerySchedule,
    ScheduleReport,
    choose_mode,
)
from repro.query.parallel import (
    CTPJob,
    PipelinedDispatch,
    effective_parallelism,
    run_ctp_jobs,
)
from repro.query.resilience import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - typing only (pool imports from parallel)
    from repro.query.pool import WorkerPool
from repro.query.parser import parse_query
from repro.query.scoring import get_score_function
from repro.storage.relational import natural_join_many
from repro.storage.table import Table


@dataclass
class CTPReport:
    """Execution details of one CTP inside a query."""

    tree_var: str
    algorithm: str
    seed_set_sizes: Tuple[Optional[int], ...]  # None marks a wildcard set
    result_set: CTPResultSet
    seconds: float
    #: True when the whole evaluation was served by the query context's
    #: cross-CTP memo (same algorithm, seed sets, and config as an earlier
    #: CTP of this query) — ``result_set`` is then the cached set.
    cache_hit: bool = False
    #: True when the evaluation ran inside a shared query context (pool
    #: counters in ``result_set.stats`` are per-run deltas in that case).
    shared_context: bool = False
    #: What actually produced this CTP's result: "serial", "thread", or
    #: "process" when a search executed, "memo" when it was served from
    #: the cross-CTP memo without running.  May differ from the requested
    #: ``parallelism_mode``: process dispatch degrades to thread/serial
    #: when jobs cannot cross a process boundary — silently for the
    #: query, but recorded here.
    dispatch_mode: str = "serial"


@dataclass
class QueryTimings:
    """Wall-clock per evaluator phase.  ``ctp_seconds`` covers all of step
    (B) — seed derivation, dispatch, and table materialization — so under
    parallel dispatch it reflects the overlapped wall time, not the sum of
    per-CTP search times (those live on each report)."""

    bgp_seconds: float = 0.0
    ctp_seconds: float = 0.0
    join_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.bgp_seconds + self.ctp_seconds + self.join_seconds


@dataclass
class QueryResult:
    """The rows of an EQL query plus its evaluation breakdown.

    Row values are node ids for node variables, edge ids for edge
    variables, and :class:`~repro.ctp.results.ResultTree` objects for CTP
    tree variables.  ``context_stats`` summarizes the query-scoped search
    context (pool size, memo/cache hit counters) when one was used.
    """

    columns: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    graph: Graph
    timings: QueryTimings = field(default_factory=QueryTimings)
    ctp_reports: List[CTPReport] = field(default_factory=list)
    context_stats: Optional[Dict[str, int]] = None
    #: What resilience machinery fired during pooled dispatch (retries,
    #: hang kills, breaker state, degradation) — ``None`` when the query
    #: ran without a :class:`~repro.query.pool.WorkerPool`.
    resilience: Optional[ResilienceReport] = None
    #: MVCC generation of the graph (view) the query evaluated against.
    #: Rows are reproducible against a full freeze of that generation.
    generation: Optional[int] = None
    #: The cost model's decisions and measurements for this query
    #: (:class:`~repro.query.costmodel.ScheduleReport`): per-CTP estimates
    #: vs. actual seconds, submission order, rebalance counters, pipeline
    #: overlap.  Set when ``scheduling=True`` or
    #: ``parallelism_mode="auto"``; ``None`` when the cost model never ran.
    schedule: Optional[ScheduleReport] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def format(self, limit: int = 20) -> str:
        """Human-readable rendering, resolving ids to labels."""
        lines = [" | ".join(f"?{c}" for c in self.columns)]
        for row in self.rows[:limit]:
            cells = []
            for value in row:
                if isinstance(value, ResultTree):
                    cells.append(value.describe(self.graph))
                elif isinstance(value, int) and 0 <= value < self.graph.num_nodes:
                    cells.append(self.graph.node(value).label or str(value))
                else:
                    cells.append(str(value))
            lines.append(" | ".join(cells))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def config_for_ctp(filters: CTPFilters, base: SearchConfig, default_timeout: Optional[float]) -> SearchConfig:
    """Push a CTP's filters (Definition 2.11) into the search configuration.

    Every filter is tri-state: ``None`` inherits the base config, anything
    else overrides it — including ``uni=False``, which *disables* a
    base-config ``uni=True`` instead of silently inheriting it.
    """
    score = base.score
    if filters.score is not None:
        score = get_score_function(filters.score)
    return base.with_(
        uni=filters.uni if filters.uni is not None else base.uni,
        labels=filters.labels if filters.labels is not None else base.labels,
        max_edges=filters.max_edges if filters.max_edges is not None else base.max_edges,
        timeout=filters.timeout if filters.timeout is not None else (base.timeout or default_timeout),
        limit=filters.limit if filters.limit is not None else base.limit,
        score=score,
        top_k=filters.top_k if filters.top_k is not None else base.top_k,
    )


def match_seed_nodes(graph: Graph, predicate: Predicate) -> List[int]:
    """Nodes of N satisfying a seed predicate (step B.1, free-variable case)."""
    label = predicate.label_constant()
    if label is not None:
        return [n for n in graph.nodes_with_label(label) if predicate.test(graph.node(n))]
    type_name = predicate.type_constant()
    if type_name is not None:
        return [n for n in graph.nodes_with_type(type_name) if predicate.test(graph.node(n))]
    return graph.find_nodes(predicate.test)


def derive_binding_values(
    bgp_tables: Sequence[Table],
    only: Optional[Sequence[str]] = None,
) -> Dict[str, List[Any]]:
    """Per-variable candidate values from the BGP tables (step B.1).

    A variable bound by *several* tables must draw its candidates from the
    **intersection** of their distinct values — using whichever table came
    first (the old ``setdefault`` behaviour) hands the search a superset of
    seeds, and with ``LIMIT`` / ``TOP k`` pushed into the search those
    extra seeds consume the result budget on rows the final join discards,
    changing query answers.  First-seen order of the first binding table is
    preserved so seed enumeration stays deterministic.

    ``only`` restricts the derivation to the named variables (the
    evaluator passes the CTP seed vars; distinct-value scans for head-only
    or edge variables would be wasted work).

    Per-variable intersection is still an over-approximation of the final
    join when two tables share *several* columns (a value pair may survive
    each column's intersection but no joined row).  EQL queries cannot
    produce that shape — :meth:`EQLQuery.bgps` builds BGPs as connected
    components under shared variables, so distinct BGP tables are
    variable-disjoint — it can only arise from hand-assembled table sets;
    a semi-join-based derivation would be the next refinement if one ever
    needs it.
    """
    wanted = None if only is None else set(only)
    values: Dict[str, List[Any]] = {}
    for table in bgp_tables:
        for column in table.columns:
            if wanted is not None and column not in wanted:
                continue
            distinct = table.distinct_values(column)
            if column not in values:
                values[column] = distinct
            else:
                keep = set(distinct)
                values[column] = [v for v in values[column] if v in keep]
    return values


def _seed_sets_for_ctp(
    graph: Graph,
    ctp: CTP,
    binding_values: Dict[str, List[Any]],
    seed_cache: Optional[Dict[Any, List[int]]] = None,
) -> Tuple[List[Any], Tuple[Optional[int], ...], List[int], int]:
    """Step (B.1): derive the CTP's seed sets from BGP bindings or the graph.

    Returns ``(seed_sets, sizes, wildcard_positions, cache_hits)``.
    ``seed_cache`` (shared across the CTPs of a query) dedups the derivation
    itself: two CTPs seeding from the same bound variable + predicate, or
    from the same free predicate (a full graph scan), reuse one node list.
    """
    seed_sets: List[Any] = []
    sizes: List[Optional[int]] = []
    wildcard_positions: List[int] = []
    cache_hits = 0
    for position, seed in enumerate(ctp.seeds):
        bound = binding_values.get(seed.var)
        if bound is not None:
            key = ("bound", seed.var, seed.conditions)
        elif seed.is_empty:
            seed_sets.append(WILDCARD)  # an N seed set (Section 4.9)
            sizes.append(None)
            wildcard_positions.append(position)
            continue
        else:
            key = ("free", seed.conditions)
        nodes = None
        if seed_cache is not None:
            nodes = seed_cache.get(key)
            if nodes is not None:
                cache_hits += 1
        if nodes is None:
            if bound is not None:
                nodes = bound if seed.is_empty else [n for n in bound if seed.test(graph.node(n))]
            else:
                nodes = match_seed_nodes(graph, seed)
            if seed_cache is not None:
                seed_cache[key] = nodes
        seed_sets.append(nodes)
        sizes.append(len(nodes))
    return seed_sets, tuple(sizes), wildcard_positions, cache_hits


def _wildcard_assignments(
    graph: Graph,
    result: ResultTree,
    wildcard_positions: Sequence[int],
) -> List[Tuple[int, ...]]:
    """All valid bindings of a result's wildcard (N) seed variables.

    Definition 2.10 semantics: an assignment is valid iff the tree is a
    minimal connecting tree of the *instantiated* seeds — equivalently,
    every leaf is either an explicitly matched seed or one of the wildcard
    bindings.  So any leaf not matched by an explicit seed set ("free")
    must be covered by some wildcard variable, and once the free leaves are
    covered, every remaining wildcard variable may bind *any* tree node
    (binding an internal node never breaks minimality).
    """
    wildcard = set(wildcard_positions)
    explicit = {
        value
        for position, value in enumerate(result.seeds)
        if position not in wildcard and value is not None
    }
    nodes: List[int] = sorted(result.nodes)
    free: List[int] = []
    if result.edges:
        free = [leaf for leaf in tree_leaves(graph, result.edges) if leaf not in explicit]
    k = len(wildcard_positions)
    if len(free) > k:
        # More uncovered leaves than wildcard variables: no instantiation
        # makes this tree minimal (defensive — the engines never report
        # such trees, their only possibly-free leaf is the root).
        return []
    if k == 1:
        choices = free if free else nodes
        return [(choice,) for choice in choices]
    # k >= 2: place the free leaves on distinct positions, fill the rest
    # with arbitrary tree nodes.  This generates only valid assignments
    # (O(k!/(k-f)! * n^(k-f)) with a dedup set) instead of filtering the
    # full n^k product.
    out: List[Tuple[int, ...]] = []
    seen = set()
    for placement in permutations(range(k), len(free)):
        rest = [position for position in range(k) if position not in placement]
        for choice in product(nodes, repeat=len(rest)):
            combo: List[Optional[int]] = [None] * k
            for leaf, position in zip(free, placement):
                combo[position] = leaf
            for value, position in zip(choice, rest):
                combo[position] = value
            assignment = tuple(combo)
            if assignment not in seen:
                seen.add(assignment)
                out.append(assignment)
    return out


def _ctp_table(
    graph: Graph,
    ctp: CTP,
    result_set: CTPResultSet,
    wildcard_positions: Sequence[int] = (),
) -> Table:
    """Materialize a CTP's results as the ``CTP_j`` table of Section 3.

    Wildcard (N) seed columns are expanded to **one row per valid match**
    (:func:`_wildcard_assignments`) instead of a single representative
    node: a representative silently drops rows as soon as the variable is
    joined against any other binding of it — or projected — because every
    other valid match of the same tree vanishes (Definition 2.10).
    """
    columns = list(ctp.seed_vars()) + [ctp.tree_var]
    rows = []
    for result in result_set:
        values = list(result.seeds)
        if not wildcard_positions:
            rows.append(tuple(values) + (result,))
            continue
        for combo in _wildcard_assignments(graph, result, wildcard_positions):
            for position, node in zip(wildcard_positions, combo):
                values[position] = node
            rows.append(tuple(values) + (result,))
    return Table(columns, rows)


def _ctp_memo_key(graph: Graph, algorithm: str, seed_sets: Sequence, config: SearchConfig):
    """Cross-CTP memo key: (graph, algorithm, seed sets, config fingerprint).

    The graph participates by *identity* — an explicit context reused
    across queries must never serve one graph's result sets for another —
    plus its size fingerprint, so growing an (append-only) graph between
    queries invalidates entries cached before the mutation.  The whole key
    lives only inside the bounded LRU, so evicting an entry releases every
    reference it pinned.
    """
    seeds_key = tuple("*" if s is WILDCARD else tuple(s) for s in seed_sets)
    return (
        graph,
        SearchContext.graph_fingerprint(graph),  # append-only growth invalidates
        algorithm,
        seeds_key,
        SearchContext.config_fingerprint(config),
    )


#: Smallest per-CTP budget a deadline can leave (seconds).  A CTP built
#: after the query's deadline already passed still *runs* with this sliver
#: so it returns an honestly-flagged ``timed_out`` partial set through the
#: normal engine path instead of needing a synthetic empty result.
_DEADLINE_FLOOR = 1e-6


def _cap_to_deadline(config: SearchConfig, query_started: float) -> SearchConfig:
    """Cap a CTP's ``timeout`` to the query deadline budget remaining *now*.

    The deadline (``SearchConfig.deadline``) is a whole-query wall-clock
    budget: each CTP may spend at most what is left when its job is built,
    so one expensive CONNECT cannot consume a later CONNECT's allowance.
    No-op without a deadline, or when the CTP's own timeout is already
    tighter.  The capped timeout participates in the memo fingerprint like
    any other timeout — deadline-truncated sets are wall-clock-dependent
    and must never be replayed (same rule as plain ``TIMEOUT``).
    """
    if config.deadline is None:
        return config
    remaining = max(config.deadline - (time.perf_counter() - query_started), _DEADLINE_FLOOR)
    if config.timeout is None or remaining < config.timeout:
        return config.with_(timeout=remaining)
    return config


def evaluate_query(
    graph: Graph,
    query: Union[str, EQLQuery],
    algorithm: str = "molesp",
    base_config: Optional[SearchConfig] = None,
    default_timeout: Optional[float] = None,
    distinct: bool = True,
    context: Optional[SearchContext] = None,
    pool: Optional["WorkerPool"] = None,
) -> QueryResult:
    """Evaluate an EQL query (Definition 2.10 semantics).

    Parameters
    ----------
    query:
        EQL text or a pre-built :class:`EQLQuery`.
    algorithm:
        CTP evaluation algorithm name (default: the paper's MoLESP).
    base_config:
        Defaults for search options not set by per-CTP filters.
    default_timeout:
        Per-CTP timeout (seconds) applied when neither the CTP's filters nor
        ``base_config`` specify one (the paper's ``T``).
    context:
        An explicit :class:`~repro.ctp.context.SearchContext` to run the
        query's CTPs in.  Passing one shared across *queries* amortizes the
        pool further (same graph required); by default a fresh context is
        created per query when ``base_config.shared_context`` is true
        (thread-safe when ``base_config.parallelism > 1``), and none at all
        when it is false (the pool-per-CTP A/B baseline).  An explicit
        non-thread-safe context downgrades a ``parallelism > 1`` request to
        serial dispatch rather than share unlocked state.
    pool:
        A persistent :class:`~repro.query.pool.WorkerPool` to route
        ``parallelism_mode="process"`` dispatches through.  The pool's
        long-lived workers keep their mmap-loaded snapshot and warm
        per-worker contexts across *queries*, so only the first query ever
        pays spin-up (the per-call executor the default path builds is
        exactly the amortization bug this parameter fixes).  The pool must
        be bound to ``graph``; a mismatched, closed, or broken pool falls
        back to the historical per-call dispatch chain.  Ignored under
        thread mode or ``parallelism == 1``.

    When ``base_config.deadline`` is set, each CTP's effective timeout is
    capped to the whole-query budget remaining when its job is built
    (:func:`_cap_to_deadline`) — or, with ``scheduling=True``, to its
    cost-proportional share of the budget, rebalanced upward at execution
    time as faster CTPs finish under their shares
    (:class:`~repro.query.costmodel.DeadlineLedger`).

    ``base_config.scheduling`` turns on the cost-model scheduling
    decisions (longest-first submission, deadline rebalancing, pipelined
    (A)→(B) overlap under thread dispatch);
    ``base_config.parallelism_mode="auto"`` has the cost model pick
    serial/thread/process dispatch per query.  Either one attaches a
    :class:`~repro.query.costmodel.ScheduleReport` to
    ``QueryResult.schedule``.
    """
    query_started = time.perf_counter()
    if isinstance(query, str):
        query = parse_query(query)
    base_config = base_config or SearchConfig()
    if context is None and base_config.shared_context:
        # Thread dispatch shares the context across worker threads, so it
        # must be born thread-safe (sharded pool, locked caches).  Process
        # dispatch only touches it from the parent, but keeping it
        # thread-safe there too lets an unpicklable workload degrade to
        # thread dispatch instead of all the way to serial.
        context = SearchContext(thread_safe=base_config.parallelism > 1)

    # Cost-model scheduling (repro.query.costmodel): an estimator is built
    # when the query opts into scheduling decisions (``scheduling=True``)
    # or asks the cost model to pick the dispatch mode (``"auto"``).
    scheduling = base_config.scheduling
    auto_mode = base_config.parallelism_mode == "auto"
    estimator = CTPCostEstimator() if (scheduling or auto_mode) else None
    schedule: Optional[QuerySchedule] = None

    bgps = query.bgps()
    seed_vars = {seed.var for ctp in query.ctps for seed in ctp.seeds}
    seed_cache: Dict[Any, List[int]] = {}
    seed_cache_hits = 0
    resilience: Optional[ResilienceReport] = None

    # Pipelined (A)→(B) overlap: under explicit thread dispatch with
    # scheduling on, each CTP only needs the bindings of its *own* seed
    # variables (BGPs are variable-disjoint components), so connection
    # search starts the moment they resolve instead of after the last BGP.
    # ``auto`` keeps the barrier path — the mode decision needs every
    # CTP's estimate, which needs every seed set, which needs all of step
    # (A) anyway.
    pipelined = (
        scheduling
        and base_config.parallelism_mode == "thread"
        and base_config.parallelism > 1
        and len(query.ctps) > 1
        and (context is None or context.thread_safe)
    )

    if pipelined:
        ledger = None
        if base_config.deadline is not None:
            # Registered incrementally as CTPs become ready (no prime):
            # early CTPs see a smaller pending pool and get generous
            # shares — exactly the overlap case where budget is plentiful.
            workers = min(base_config.parallelism, len(query.ctps))
            ledger = DeadlineLedger(base_config.deadline, query_started, workers)
        schedule = QuerySchedule(ledger=ledger, enabled=True)
        schedule.report.mode_requested = "thread"
        schedule.report.mode_selected = "thread"
        schedule.report.algorithms = [algorithm] * len(query.ctps)

        bgp_var_sets = [frozenset(bgp.variables()) for bgp in bgps]
        deps = [
            {b for b, names in enumerate(bgp_var_sets) if set(ctp.seed_vars()) & names}
            for ctp in query.ctps
        ]
        dispatch = PipelinedDispatch(
            graph,
            algorithm,
            context,
            workers=min(base_config.parallelism, len(query.ctps)),
            backend=base_config.backend,
            schedule=schedule,
        )
        ctp_started = time.perf_counter()
        bgp_tables = []
        binding_values: Dict[str, List[Any]] = {}
        derived: List[Any] = [None] * len(query.ctps)
        pending = list(range(len(query.ctps)))
        bgp_seconds = 0.0

        def submit_ready(done_bgps: int) -> None:
            nonlocal seed_cache_hits
            ready: List[CTPJob] = []
            still: List[int] = []
            for index in pending:
                if any(dep >= done_bgps for dep in deps[index]):
                    still.append(index)
                    continue
                ctp = query.ctps[index]
                seed_sets, sizes, wildcard_positions, hits = _seed_sets_for_ctp(
                    graph, ctp, binding_values, seed_cache
                )
                seed_cache_hits += hits
                config = config_for_ctp(ctp.filters, base_config, default_timeout)
                cost = estimator.estimate_ctp(graph, algorithm, sizes, config)
                schedule.estimates[index] = cost
                if ledger is not None:
                    build = ledger.register(index, cost, config.timeout)
                    config = config.with_(timeout=build)
                memo_key = (
                    _ctp_memo_key(graph, algorithm, seed_sets, config)
                    if context is not None
                    else None
                )
                derived[index] = (sizes, wildcard_positions)
                ready.append(
                    CTPJob(index=index, seed_sets=seed_sets, config=config, memo_key=memo_key)
                )
            pending[:] = still
            dispatch.submit_ready(ready, overlapped=done_bgps < len(bgps))

        try:
            submit_ready(0)  # free-seed CTPs start before any BGP runs
            for done, bgp in enumerate(bgps):
                bgp_start = time.perf_counter()
                table = evaluate_bgp(graph, bgp)
                bgp_seconds += time.perf_counter() - bgp_start
                bgp_tables.append(table)
                # Variable-disjoint components: each seed variable is
                # bound by at most one table, so per-table derivation is
                # exactly derive_binding_values over the full set.
                for column in table.columns:
                    if column in seed_vars:
                        binding_values[column] = table.distinct_values(column)
                submit_ready(done + 1)
        except BaseException:
            dispatch.abort()
            raise
        outcomes = dispatch.finish()
    else:
        # Step (A): evaluate each BGP into a materialized table.
        started = time.perf_counter()
        bgp_tables = [evaluate_bgp(graph, bgp) for bgp in bgps]
        bgp_seconds = time.perf_counter() - started

        binding_values = derive_binding_values(bgp_tables, only=seed_vars)

        # Step (B): evaluate each CTP on its derived seed sets, all runs
        # inside the query-scoped context (shared pool + caches) when one
        # is active.  Seed derivation stays serial (it shares one dedup
        # cache); the searches themselves go through the dispatch layer —
        # the serial loop for parallelism=1, a worker pool with in-flight
        # memo dedup otherwise.
        ctp_started = time.perf_counter()
        prepared: List[Tuple[List[Any], SearchConfig]] = []
        costs: Dict[int, float] = {}
        derived = []
        for index, ctp in enumerate(query.ctps):
            seed_sets, sizes, wildcard_positions, hits = _seed_sets_for_ctp(
                graph, ctp, binding_values, seed_cache
            )
            seed_cache_hits += hits
            config = config_for_ctp(ctp.filters, base_config, default_timeout)
            if estimator is not None:
                costs[index] = estimator.estimate_ctp(graph, algorithm, sizes, config)
            prepared.append((seed_sets, config))
            derived.append((sizes, wildcard_positions))

        mode = base_config.parallelism_mode
        parallelism = base_config.parallelism
        mode_selected: Optional[str] = None
        if auto_mode:
            mode_selected = choose_mode(sum(costs.values()), len(prepared), parallelism, pool)
            if mode_selected == "serial":
                mode, parallelism = "thread", 1
            else:
                mode = mode_selected

        if estimator is not None:
            ledger = None
            if scheduling and base_config.deadline is not None:
                workers = effective_parallelism(parallelism, len(prepared), context, mode)
                ledger = DeadlineLedger(base_config.deadline, query_started, workers)
                ledger.prime(costs)  # full pending pool before any build share
            schedule = QuerySchedule(estimates=costs, ledger=ledger, enabled=scheduling)
            schedule.report.mode_requested = base_config.parallelism_mode
            # One query runs one algorithm across its CTPs; record it per
            # CTP so CTPCostEstimator.fit can pool reports across queries
            # that used different algorithms.
            schedule.report.algorithms = [algorithm] * len(prepared)
            if mode_selected is None:
                workers = effective_parallelism(parallelism, len(prepared), context, mode)
                pooled = pool is not None and mode == "process" and not pool.closed
                mode_selected = mode if workers > 1 or pooled else "serial"
            schedule.report.mode_selected = mode_selected

        jobs: List[CTPJob] = []
        for index, (seed_sets, config) in enumerate(prepared):
            if schedule is not None and schedule.ledger is not None:
                # The ledger replaces the historical freeze-at-build cap:
                # each CTP's budget is its cost-proportional share of the
                # remaining deadline (rebalanced upward at execution time).
                build = schedule.ledger.register(index, costs[index], config.timeout)
                config = config.with_(timeout=build)
            else:
                config = _cap_to_deadline(config, query_started)
            memo_key = (
                _ctp_memo_key(graph, algorithm, seed_sets, config) if context is not None else None
            )
            jobs.append(CTPJob(index=index, seed_sets=seed_sets, config=config, memo_key=memo_key))
        resilience = ResilienceReport() if pool is not None else None
        outcomes = run_ctp_jobs(
            graph,
            algorithm,
            jobs,
            context,
            parallelism,
            mode,
            pool=pool,
            report=resilience,
            schedule=schedule,
        )
    ctp_tables: List[Table] = []
    reports: List[CTPReport] = []
    for ctp, (sizes, wildcard_positions), outcome in zip(query.ctps, derived, outcomes):
        reports.append(
            CTPReport(
                tree_var=ctp.tree_var,
                algorithm=algorithm,
                seed_set_sizes=sizes,
                result_set=outcome.result_set,
                seconds=outcome.seconds,
                cache_hit=outcome.cache_hit,
                shared_context=context is not None,
                dispatch_mode=outcome.mode,
            )
        )
        ctp_tables.append(_ctp_table(graph, ctp, outcome.result_set, wildcard_positions))
    # Under the pipelined path steps (A) and (B) overlap on the wall clock:
    # the BGP evaluation time is attributed to bgp_seconds and the rest of
    # the combined section to ctp_seconds, so the phase totals still sum to
    # the query's wall time.
    ctp_seconds = time.perf_counter() - ctp_started - (bgp_seconds if pipelined else 0.0)

    # Step (C): join everything and project on the head.
    join_started = time.perf_counter()
    joined = natural_join_many(bgp_tables + ctp_tables)
    missing = [var for var in query.head if var not in joined.columns]
    if missing:
        raise EvaluationError(f"head variables {missing} not bound by the query body")
    final = joined.project(list(query.head), distinct=distinct)
    rows = list(final.rows)
    if query.limit is not None:
        rows = rows[: query.limit]
    join_seconds = time.perf_counter() - join_started

    context_stats = None
    if context is not None:
        context_stats = context.stats_dict()
        context_stats["seed_cache_hits"] = seed_cache_hits
    return QueryResult(
        columns=final.columns,
        rows=rows,
        graph=graph,
        timings=QueryTimings(bgp_seconds, ctp_seconds, join_seconds),
        ctp_reports=reports,
        context_stats=context_stats,
        resilience=resilience,
        generation=getattr(graph, "generation", 0),
        schedule=schedule.finalize(outcomes) if schedule is not None else None,
    )
