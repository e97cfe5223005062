"""Abstract syntax of EQL (Definitions 2.2 - 2.6 and 2.11).

The building blocks mirror the paper exactly:

* :class:`Condition` — ``p(v) op c`` over one variable (Definition 2.2);
* :class:`Predicate` — a conjunction of conditions over one variable;
* :class:`EdgePattern` — ``(p1, p2, p3)`` over source, edge, target
  (Definition 2.3);
* :class:`BGP` — a connected set of edge patterns (Definition 2.4);
* :class:`CTP` — ``(g1, ..., gm, v_{m+1})`` (Definition 2.5) plus its
  optional filters (Definition 2.11);
* :class:`EQLQuery` — head + body of BGPs and CTPs (Definition 2.6).

Values compared by conditions come from node/edge *properties*; ``label``
and ``type`` are always available, ``type`` testing set membership.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ValidationError

#: Comparison operators of the paper's Omega, extended with the symmetric
#: comparisons and inequality for convenience.
OPERATORS = ("=", "!=", "<", "<=", ">", ">=", "~")

#: Variables the parser makes up for a constant or a ``*`` argument are
#: named ``_c1``, ``_c2``, ... in the order it meets them.
FRESH_VAR_PREFIX = "_c"
_FRESH_VAR = re.compile(re.escape(FRESH_VAR_PREFIX) + r"\d+")


@dataclass(frozen=True)
class Condition:
    """One condition ``prop(v) op value`` (the variable is held by the
    enclosing :class:`Predicate`)."""

    prop: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValidationError(f"unknown operator {self.op!r}; allowed: {OPERATORS}")

    def test(self, item) -> bool:
        """Evaluate the condition on a graph node or edge."""
        actual = item.property(self.prop)
        if self.prop == "type":
            # type(v) = c means "c is one of v's types".
            if self.op == "=":
                return self.value in actual
            if self.op == "!=":
                return self.value not in actual
            raise ValidationError(f"operator {self.op!r} is not defined on types")
        if self.op == "~":
            return isinstance(actual, str) and fnmatchcase(actual, str(self.value))
        if actual is None:
            return False
        try:
            if self.op == "=":
                return actual == self.value
            if self.op == "!=":
                return actual != self.value
            if self.op == "<":
                return actual < self.value
            if self.op == "<=":
                return actual <= self.value
            if self.op == ">":
                return actual > self.value
            return actual >= self.value
        except TypeError:
            return False


@dataclass(frozen=True)
class Predicate:
    """A conjunction of conditions over exactly one variable.

    An empty predicate (no conditions) matches everything — it is written
    as a bare variable in the paper.
    """

    var: str
    conditions: Tuple[Condition, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.conditions

    def test(self, item) -> bool:
        return all(condition.test(item) for condition in self.conditions)

    def label_constant(self) -> Optional[str]:
        """The constant ``c`` when the predicate contains ``label(v) = c``."""
        for condition in self.conditions:
            if condition.prop == "label" and condition.op == "=":
                return condition.value
        return None

    def type_constant(self) -> Optional[str]:
        for condition in self.conditions:
            if condition.prop == "type" and condition.op == "=":
                return condition.value
        return None

    @classmethod
    def label_equals(cls, var: str, label: str) -> "Predicate":
        """The paper's shorthand: a constant stands for ``label(v) = c``."""
        return cls(var, (Condition("label", "=", label),))


@dataclass(frozen=True)
class EdgePattern:
    """``(p1, p2, p3)``: predicates over source node, edge, target node."""

    source: Predicate
    edge: Predicate
    target: Predicate

    def variables(self) -> Tuple[str, str, str]:
        return (self.source.var, self.edge.var, self.target.var)


@dataclass(frozen=True)
class BGP:
    """A connected set of edge patterns (Definition 2.4)."""

    patterns: Tuple[EdgePattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValidationError("a BGP needs at least one edge pattern")
        if len(self.patterns) > 1 and len(_connected_pattern_groups(self.patterns)) != 1:
            raise ValidationError("BGP edge patterns must be connected through shared variables")

    def variables(self) -> List[str]:
        out: List[str] = []
        for pattern in self.patterns:
            for var in pattern.variables():
                if var not in out:
                    out.append(var)
        return out


@dataclass(frozen=True)
class CTPFilters:
    """The optional CTP filters of Definition 2.11 / Section 4.8.

    Every field is tri-state: ``None`` means "not specified, inherit the
    base :class:`~repro.ctp.config.SearchConfig`".  That includes ``uni``
    — an explicit ``uni=False`` *overrides* a base config that enables the
    filter, instead of being indistinguishable from "unspecified".
    """

    uni: Optional[bool] = None
    labels: Optional[FrozenSet[str]] = None
    max_edges: Optional[int] = None
    score: Optional[str] = None
    top_k: Optional[int] = None
    timeout: Optional[float] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.top_k is not None and self.score is None:
            raise ValidationError("TOP k requires SCORE sigma")
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass(frozen=True)
class CTP:
    """A connecting tree pattern ``(g1, ..., gm, v_{m+1})`` (Definition 2.5).

    ``tree_var`` is the underlined variable bound to the connecting tree.
    """

    seeds: Tuple[Predicate, ...]
    tree_var: str
    filters: CTPFilters = field(default_factory=CTPFilters)

    def __post_init__(self) -> None:
        if len(self.seeds) < 1:
            raise ValidationError("a CTP needs at least one seed predicate")
        variables = [seed.var for seed in self.seeds] + [self.tree_var]
        if len(set(variables)) != len(variables):
            raise ValidationError("all CTP variables must be pairwise distinct (Definition 2.5)")

    @property
    def m(self) -> int:
        return len(self.seeds)

    def seed_vars(self) -> Tuple[str, ...]:
        return tuple(seed.var for seed in self.seeds)


@dataclass(frozen=True)
class EQLQuery:
    """A core query (Definition 2.6) with per-CTP filters (Definition 2.11).

    ``patterns`` holds every edge pattern of the body; the BGPs of the query
    are the connected components of those patterns under shared variables
    (:meth:`bgps`).  ``limit`` is the query-level ``LIMIT n`` modifier the
    paper mentions alongside requirement (R4) ("unless users explicitly
    LIMIT the result size").
    """

    head: Tuple[str, ...]
    patterns: Tuple[EdgePattern, ...] = ()
    ctps: Tuple[CTP, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.patterns and not self.ctps:
            raise ValidationError("a query needs at least one BGP or CTP (k + l > 0)")
        if self.limit is not None and self.limit <= 0:
            raise ValidationError("LIMIT must be positive")
        tree_vars = [ctp.tree_var for ctp in self.ctps]
        if len(set(tree_vars)) != len(tree_vars):
            raise ValidationError("each CTP tree variable must appear exactly once in the query")
        body_vars = set(self.body_variables())
        for tree_var in tree_vars:
            occurrences = sum(1 for p in self.patterns for v in p.variables() if v == tree_var)
            occurrences += sum(1 for ctp in self.ctps for v in ctp.seed_vars() if v == tree_var)
            if occurrences:
                raise ValidationError(f"tree variable ?{tree_var} may not occur elsewhere in the query body")
        # CTP seeds are *nodes* (Definition 2.5 binds them to graph nodes);
        # a variable bound by an edge position of a pattern can never be one.
        edge_vars = {pattern.edge.var for pattern in self.patterns}
        for ctp in self.ctps:
            for var in ctp.seed_vars():
                if var in edge_vars:
                    raise ValidationError(
                        f"CTP seed ?{var} is an edge variable; CONNECT arguments must bind nodes"
                    )
        for var in self.head:
            if var not in body_vars:
                raise ValidationError(f"head variable ?{var} does not occur in the query body")

    # ------------------------------------------------------------------
    def bgps(self) -> List[BGP]:
        """The BGPs of the body: connected components of the edge patterns."""
        return [BGP(tuple(group)) for group in _connected_pattern_groups(self.patterns)]

    def simple_variables(self) -> List[str]:
        """Variables that are not CTP tree variables (Definition 2.9)."""
        tree_vars = {ctp.tree_var for ctp in self.ctps}
        out: List[str] = []
        for pattern in self.patterns:
            for var in pattern.variables():
                if var not in tree_vars and var not in out:
                    out.append(var)
        for ctp in self.ctps:
            for var in ctp.seed_vars():
                if var not in out:
                    out.append(var)
        return out

    def body_variables(self) -> List[str]:
        out = self.simple_variables()
        for ctp in self.ctps:
            out.append(ctp.tree_var)
        return out

    def __str__(self) -> str:
        """EQL text that :func:`repro.query.parser.parse_query` reads back
        to an equal query.

        A predicate over a made-up variable prints as what the parser made
        it from: its label constant, or ``*`` when it is empty (a wildcard
        seed).  The conditions on a named variable print as one ``FILTER``.
        """
        conditions: Dict[str, Tuple[Condition, ...]] = {}

        def term(predicate: Predicate) -> str:
            if _FRESH_VAR.fullmatch(predicate.var):
                if predicate.is_empty:
                    return "*"
                if len(predicate.conditions) == 1 and predicate.label_constant() is not None:
                    return _literal(predicate.label_constant())
            if predicate.conditions:
                conditions.setdefault(predicate.var, predicate.conditions)
            return f"?{predicate.var}"

        body = [f"  {term(p.source)} {term(p.edge)} {term(p.target)} ." for p in self.patterns]
        connects = [
            f"  CONNECT({', '.join(term(seed) for seed in ctp.seeds)}) AS ?{ctp.tree_var}{_ctp_filters(ctp.filters)}"
            for ctp in self.ctps
        ]
        for var, conjunction in conditions.items():
            tests = " AND ".join(f"{c.prop}(?{var}) {c.op} {_literal(c.value)}" for c in conjunction)
            body.append(f"  FILTER({tests})")
        limit = "" if self.limit is None else f" LIMIT {self.limit}"
        head = " ".join(f"?{var}" for var in self.head)
        return "\n".join([f"SELECT {head} WHERE {{", *body, *connects, f"}}{limit}"])


def _literal(value: Any) -> str:
    """A constant as the EQL tokenizer reads it: strings quoted and escaped."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value)


def _ctp_filters(filters: CTPFilters) -> str:
    """The CTP filter clauses of ``filters``, each with a leading space."""
    clauses = []
    if filters.uni:
        clauses.append("UNI")
    if filters.labels:
        clauses.append(f"LABEL({', '.join(_literal(label) for label in sorted(filters.labels))})")
    if filters.max_edges is not None:
        clauses.append(f"MAX {filters.max_edges}")
    if filters.score is not None:
        clauses.append(f"SCORE {filters.score}" + ("" if filters.top_k is None else f" TOP {filters.top_k}"))
    if filters.timeout is not None:
        clauses.append(f"TIMEOUT {filters.timeout!r}")
    if filters.limit is not None:
        clauses.append(f"LIMIT {filters.limit}")
    return "".join(f" {clause}" for clause in clauses)


def _connected_pattern_groups(patterns: Sequence[EdgePattern]) -> List[List[EdgePattern]]:
    """Group edge patterns into connected components by shared variables."""
    if not patterns:
        return []
    parent = list(range(len(patterns)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    owner: Dict[str, int] = {}
    for index, pattern in enumerate(patterns):
        for var in pattern.variables():
            if var in owner:
                union(owner[var], index)
            else:
                owner[var] = index
    groups: Dict[int, List[EdgePattern]] = {}
    for index, pattern in enumerate(patterns):
        groups.setdefault(find(index), []).append(pattern)
    return list(groups.values())
