"""The Extended Query Language (EQL) — Sections 2 and 3 of the paper.

EQL combines Basic Graph Patterns (the conjunctive core of SPARQL/Cypher)
with Connecting Tree Patterns.  The concrete syntax is SPARQL-flavoured::

    SELECT ?x ?y ?z ?w
    WHERE {
      ?x citizenOf "USA" .
      ?y citizenOf "France" .
      ?z citizenOf "France" .
      FILTER(type(?x) = "entrepreneur")
      FILTER(type(?y) = "entrepreneur")
      FILTER(type(?z) = "politician")
      CONNECT(?x, ?y, ?z) AS ?w MAX 6 TIMEOUT 10
    }

:func:`parse_query` turns text into an :class:`~repro.query.ast.EQLQuery`;
:func:`evaluate_query` runs the three-step strategy of Section 3 (BGPs ->
seed sets -> CTPs -> joins).
"""

from repro.query.ast import (
    BGP,
    CTP,
    Condition,
    CTPFilters,
    EdgePattern,
    EQLQuery,
    Predicate,
)
from repro.query.parser import parse_query
from repro.query.bgp import evaluate_bgp
from repro.query.costmodel import DeadlineLedger
from repro.query.evaluator import QueryResult, evaluate_query
from repro.query.parallel import BatchResult, evaluate_queries
from repro.query.pool import WorkerPool
from repro.query.scoring import SCORE_FUNCTIONS, get_score_function, register_score_function

__all__ = [
    "BGP",
    "BatchResult",
    "WorkerPool",
    "CTP",
    "CTPFilters",
    "Condition",
    "DeadlineLedger",
    "EQLQuery",
    "EdgePattern",
    "Predicate",
    "QueryResult",
    "SCORE_FUNCTIONS",
    "evaluate_bgp",
    "evaluate_queries",
    "evaluate_query",
    "get_score_function",
    "parse_query",
    "register_score_function",
]
