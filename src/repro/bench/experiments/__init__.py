"""One module per paper table/figure; :data:`EXPERIMENTS` is the index."""

from __future__ import annotations

from typing import Callable, Dict

from repro.bench.experiments import (
    abl01_design,
    fig02_chain,
    fig10_baselines,
    fig11_variants,
    fig12_qgstp,
    fig13_cdf_m2,
    fig14_cdf_m3,
    micro_chaos,
    micro_scale,
    table1_yago,
)
from repro.bench.harness import ExperimentReport
from repro.errors import ReproError

#: Experiment registry: id -> run(scale, timeout, repeats) -> ExperimentReport
EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {
    "fig02": fig02_chain.run,
    "fig10": fig10_baselines.run,
    "fig11": fig11_variants.run,
    "fig12": fig12_qgstp.run,
    "fig13": fig13_cdf_m2.run,
    "fig14": fig14_cdf_m3.run,
    "table1": table1_yago.run,
    "abl01": abl01_design.run,
    "chaos": micro_chaos.run,
    "scale": micro_scale.run,
}


def get_experiment(name: str) -> Callable[..., ExperimentReport]:
    """Look up an experiment runner by id (e.g. ``"fig11"``)."""
    try:
        return EXPERIMENTS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(f"unknown experiment {name!r}; known: {known}") from None
