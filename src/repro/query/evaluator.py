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
(:class:`~repro.ctp.context.SearchContext`): every CTP evaluation adopts
the same edge-set pool (edge sets a sibling CTP interned are memo hits,
not fresh allocations), rooted-tree results are cached per ``(root, eset
handle, config fingerprint)``, and whole *complete* CTP result sets are
memoized across CTPs — a CONNECT repeated under several tree variables
(or re-evaluated across BGP embeddings) runs once.  The context is
representation and reuse only: rows are those of a context-less engine
run per CTP (``tests/test_query_context.py`` keeps that run as the
reference).

Steps (A) and (B) are **one body**: BGPs are evaluated in order and a
CTP's job is built when its seed variables resolve, then handed to the
single dispatch loop of :mod:`repro.query.parallel` (memo serve, in-flight
dedup of repeated CTPs, run, CTP-order memo replay) over whatever executes
it — inline on the calling thread (``parallelism=1``), N worker threads
over a thread-safe context, or the worker processes of a
:class:`~repro.query.pool.WorkerPool`, each loading the graph once from an
mmap-shared CSR snapshot (real multi-core overlap for CPU-bound complete
searches under the GIL).  *When* jobs are fed is the only variable: under
explicit thread dispatch a CTP starts searching the moment its own
bindings exist, overlapping the BGPs still to come; otherwise nothing is
fed before the last BGP — the mode decision of ``"auto"`` needs every
CTP's estimate, and jobs bound for worker processes would serialize on
pickling anyway.  Dispatch is representation-only — rows are bit-identical
to serial evaluation regardless of executor, worker count or feed time
(``python -m repro.bench parallel`` re-checks equality).  The batch
counterpart :func:`~repro.query.parallel.evaluate_queries` runs many
queries against one shared context for cross-query memo hits.

Every query runs under the cost model (:mod:`repro.query.costmodel`): each
CTP is estimated when its seed sets resolve; the estimates order the
fan-out longest-first, resolve ``parallelism_mode="auto"``, and — when
``SearchConfig.deadline`` is set — size each CTP's share of the query's
wall budget through a :class:`~repro.query.costmodel.DeadlineLedger`, so
the deadline bounds the *query*, not each CTP separately.  What it decided
is on ``QueryResult.schedule``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.ctp.config import WILDCARD, SearchConfig
from repro.ctp.context import MemoKey, SearchContext
from repro.ctp.results import CTPResultSet, ResultTree, tree_leaves
from repro.errors import EvaluationError
from repro.graph.graph import Graph
from repro.query.ast import CTP, CTPFilters, EQLQuery, Predicate
from repro.query.bgp import evaluate_bgp, matching_nodes
from repro.query.costmodel import (
    CTPCostEstimator,
    DeadlineLedger,
    QuerySchedule,
    ScheduleReport,
    choose_mode,
)
from repro.query.parallel import CTPJob, effective_parallelism, open_dispatch
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
    #: What actually produced this CTP's result: "serial", "thread", or
    #: "process" when a search executed, "memo" when it was served from
    #: the cross-CTP memo without running.  May differ from the requested
    #: ``parallelism_mode``: process dispatch degrades when jobs cannot
    #: cross a process boundary or the pool fails — silently for the
    #: query, but recorded here as "process->thread"/"process->serial".
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
    context (pool size, memo/cache hit counters); the pool counters in
    each report's ``result_set.stats`` are per-run deltas against it.
    """

    columns: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    graph: Graph
    timings: QueryTimings = field(default_factory=QueryTimings)
    ctp_reports: List[CTPReport] = field(default_factory=list)
    context_stats: Dict[str, int] = field(default_factory=dict)
    #: What resilience machinery fired during process dispatch (retries,
    #: hang kills, breaker state, degradation) — ``None`` when neither a
    #: :class:`~repro.query.pool.WorkerPool` nor process mode was involved.
    resilience: Optional[ResilienceReport] = None
    #: MVCC generation of the graph (view) the query evaluated against.
    #: Rows are reproducible against a full freeze of that generation.
    generation: Optional[int] = None
    #: The cost model's decisions and measurements for this query:
    #: per-CTP estimates vs. actual seconds, submission order, rebalance
    #: counters, pipeline overlap.
    schedule: ScheduleReport = field(default_factory=ScheduleReport)

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
    return matching_nodes(graph, predicate)


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
                nodes = bound if seed.is_empty else matching_nodes(graph, seed, bound)
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


def _ctp_memo_key(graph: Graph, algorithm: str, seed_sets: Sequence, config: SearchConfig) -> MemoKey:
    """Cross-CTP memo key: (lineage, algorithm, seed sets, config fingerprint).

    The lineage — the mutable graph a pinned view was taken from, or the
    graph itself — participates by *identity*: an explicit context reused
    across queries must never serve one graph's result sets for another.
    No generation: the entry is stamped with the one that filed it, and
    ``graph`` rides on the key (never cached) for
    :meth:`~repro.ctp.context.SearchContext.memo_get` to vet that stamp
    against, so one CTP holds one entry across its graph's generations.
    """
    lineage = getattr(graph, "view_source", None)
    return MemoKey(
        graph if lineage is None else lineage,
        algorithm,
        tuple("*" if s is WILDCARD else tuple(s) for s in seed_sets),
        SearchContext.config_fingerprint(config),
        graph,
    )


#: The one cost model.  Stateless (a frozen dataclass of weights), so every
#: query of the process shares it.
_ESTIMATOR = CTPCostEstimator()


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
        created per query (thread-safe when ``base_config.parallelism >
        1``).  An explicit non-thread-safe context downgrades a
        ``parallelism > 1`` request to serial dispatch rather than share
        unlocked state.
    pool:
        A persistent :class:`~repro.query.pool.WorkerPool` to route
        ``parallelism_mode="process"`` dispatches through.  The pool's
        long-lived workers keep their mmap-loaded snapshot and warm
        per-worker contexts across *queries*, so only the first query ever
        pays spin-up.  Without one — or with one that is closed or bound
        to another graph — a process-mode query takes the same path on a
        pool that lives for the call (retry, watchdog and hop stamps
        included; only the amortization is lost).  Ignored under thread
        mode.

    When ``base_config.deadline`` is set, each CTP's effective timeout is
    its cost-proportional share of the whole-query budget, re-granted
    upward at execution time as faster CTPs finish under their shares
    (:class:`~repro.query.costmodel.DeadlineLedger`).
    ``base_config.parallelism_mode="auto"`` has the cost model pick
    serial/thread/process dispatch per query.
    """
    query_started = time.perf_counter()
    if isinstance(query, str):
        query = parse_query(query)
    base_config = base_config or SearchConfig()
    if context is None:
        # Thread dispatch shares the context across worker threads, so it
        # must be born thread-safe (sharded pool, locked caches).  Process
        # dispatch only touches it from the parent, but keeping it
        # thread-safe there too lets an unpicklable workload degrade to
        # thread dispatch instead of all the way to serial.
        context = SearchContext(thread_safe=base_config.parallelism > 1)

    bgps = query.bgps()
    ctps = query.ctps
    seed_vars = {seed.var for ctp in ctps for seed in ctp.seeds}
    seed_cache: Dict[Any, List[int]] = {}
    seed_cache_hits = 0

    # When CTP jobs are fed to the dispatch.  Each CTP only needs the
    # bindings of its *own* seed variables (BGPs are variable-disjoint
    # components, so a seed variable is bound by at most one of them):
    # under explicit thread dispatch a CTP is built and submitted the
    # moment those resolve — free-seed CTPs before any BGP runs — and
    # searches while later BGPs are still materializing.
    # Everything else is the degenerate case in which nothing is fed before
    # the last BGP: ``auto`` needs every CTP's estimate (hence every seed
    # set, hence all of step (A)) to pick the mode, and shipping jobs to
    # worker processes mid-(A) would serialize on pickling anyway.
    pipelined = (
        base_config.parallelism_mode == "thread"
        and base_config.parallelism > 1
        and len(ctps) > 1
        and context.thread_safe
    )
    ready_at = [len(bgps)] * len(ctps)
    if pipelined:
        bgp_vars = [frozenset(bgp.variables()) for bgp in bgps]
        ready_at = [
            max((b + 1 for b, names in enumerate(bgp_vars) if names & seeds), default=0)
            for seeds in (set(ctp.seed_vars()) for ctp in ctps)
        ]

    schedule = QuerySchedule()  # its ledger stays None without a deadline
    resilience: Optional[ResilienceReport] = None
    dispatch: Any = None
    bgp_tables: List[Table] = []
    binding_values: Dict[str, List[Any]] = {}
    costs = schedule.estimates  # per CTP index, filled as seed sets resolve
    derived: List[Any] = [None] * len(ctps)
    bgp_seconds = 0.0
    started = time.perf_counter()
    with ExitStack() as scope:
        for done in range(len(bgps) + 1):
            if done:
                # Step (A): evaluate the next BGP into a materialized table.
                bgp_started = time.perf_counter()
                bgp_tables.append(evaluate_bgp(graph, bgps[done - 1]))
                bgp_seconds += time.perf_counter() - bgp_started
                # Variable-disjoint components: per-table derivation is
                # exactly derive_binding_values over the full set.
                binding_values.update(derive_binding_values(bgp_tables[-1:], only=seed_vars))
            if done < len(bgps) and not pipelined:
                continue

            # Step (B): derive the seed sets of every CTP whose variables
            # just resolved (serially — the derivations share one dedup
            # cache) and hand the searches to the dispatch, all running
            # inside the query-scoped context.
            drafts: List[Tuple[int, List[Any], SearchConfig]] = []
            for index in (i for i, at in enumerate(ready_at) if at == done):
                seed_sets, sizes, wildcard_positions, hits = _seed_sets_for_ctp(
                    graph, ctps[index], binding_values, seed_cache
                )
                seed_cache_hits += hits
                config = config_for_ctp(ctps[index].filters, base_config, default_timeout)
                costs[index] = _ESTIMATOR.estimate_ctp(graph, algorithm, sizes, config)
                derived[index] = (sizes, wildcard_positions)
                drafts.append((index, seed_sets, config))

            if dispatch is None:
                mode = base_config.parallelism_mode
                parallelism = base_config.parallelism
                mode_selected: Optional[str] = None
                if mode == "auto":
                    mode_selected = choose_mode(sum(costs.values()), len(ctps), parallelism, pool)
                    if mode_selected == "serial":
                        mode, parallelism = "thread", 1
                    else:
                        mode = mode_selected
                workers = effective_parallelism(parallelism, len(ctps), context, mode)
                if base_config.deadline is not None:
                    schedule.ledger = DeadlineLedger(base_config.deadline, query_started, workers)
                    if not pipelined:
                        # Full pending pool before any build share.  Fed
                        # early, CTPs register incrementally instead: the
                        # first ones see a smaller pool and get generous
                        # shares — exactly the overlap case where budget
                        # is plentiful.
                        schedule.ledger.prime(costs)
                schedule.report.mode_requested = base_config.parallelism_mode
                # One query runs one algorithm across its CTPs; record it
                # per CTP so CTPCostEstimator.fit can pool reports across
                # queries that used different algorithms.
                schedule.report.algorithms = [algorithm] * len(ctps)
                if mode_selected is None:
                    pooled = pool is not None and mode == "process" and not pool.closed
                    mode_selected = mode if workers > 1 or pooled else "serial"
                schedule.report.mode_selected = mode_selected
                if pool is not None or mode == "process":
                    resilience = ResilienceReport()
                dispatch = scope.enter_context(
                    open_dispatch(
                        graph,
                        algorithm,
                        context,
                        len(ctps),
                        parallelism,
                        mode,
                        pool=pool,
                        report=resilience,
                        schedule=schedule,
                    )
                )
            jobs: List[CTPJob] = []
            for index, seed_sets, config in drafts:
                # Keyed on the CTP's own config, before a deadline share is
                # written into ``timeout``: only complete, untruncated sets
                # are ever filed, and those do not depend on the budget.
                memo_key = _ctp_memo_key(graph, algorithm, seed_sets, config)
                if schedule.ledger is not None:
                    # Each CTP's budget is its cost-proportional share of
                    # the remaining deadline (re-granted upward at
                    # execution); its own timeout stays the ceiling.
                    budget = schedule.ledger.register(index, costs[index], config.timeout)
                    config = config.with_(timeout=budget)
                jobs.append(CTPJob(index, seed_sets, config, memo_key))
            dispatch.submit(jobs, overlapped=done < len(bgps))
        outcomes = dispatch.finish()
    ctp_tables: List[Table] = []
    reports: List[CTPReport] = []
    for ctp, (sizes, wildcard_positions), outcome in zip(ctps, derived, outcomes):
        reports.append(
            CTPReport(
                tree_var=ctp.tree_var,
                algorithm=algorithm,
                seed_set_sizes=sizes,
                result_set=outcome.result_set,
                seconds=outcome.seconds,
                cache_hit=outcome.cache_hit,
                dispatch_mode=outcome.mode,
            )
        )
        ctp_tables.append(_ctp_table(graph, ctp, outcome.result_set, wildcard_positions))
    # Steps (A) and (B) may overlap on the wall clock: the BGP evaluation
    # time is attributed to bgp_seconds and the rest of the combined section
    # to ctp_seconds, so the phase totals still sum to the query's wall time.
    ctp_seconds = time.perf_counter() - started - bgp_seconds

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
        schedule=schedule.finalize(outcomes),
    )
