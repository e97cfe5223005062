"""Workload generators for the paper's evaluation (Section 5.3).

* :mod:`repro.workloads.synthetic` — the parameterized Line / Comb / Star
  graphs of Figure 8 plus the exponential chain of Figure 2;
* :mod:`repro.workloads.cdf` — Connected Dense Forest graphs and their EQL
  queries (Figure 9, Sections 5.5.1);
* :mod:`repro.workloads.realworld` — seeded scale-free substitutes for the
  YAGO3/DBPedia subsets, with CTP workload samplers and the J1-J3 queries
  of Table 1 (its module docstring gives the substitution rationale).
"""

from repro.workloads.synthetic import chain_graph, comb_graph, line_graph, star_graph
from repro.workloads.cdf import CDFDataset, cdf_graph, cdf_query
from repro.workloads.queries import random_query
from repro.workloads.realworld import (
    RealWorldDataset,
    dbpedia_like,
    j1_query,
    j2_query,
    j3_query,
    sample_ctp_workload,
    scale_free_graph,
    yago_like,
)

__all__ = [
    "CDFDataset",
    "RealWorldDataset",
    "cdf_graph",
    "cdf_query",
    "chain_graph",
    "comb_graph",
    "dbpedia_like",
    "j1_query",
    "j2_query",
    "j3_query",
    "line_graph",
    "random_query",
    "sample_ctp_workload",
    "scale_free_graph",
    "star_graph",
    "yago_like",
]
