"""Benchmark harness regenerating every table and figure of Section 5.

Each experiment lives in :mod:`repro.bench.experiments` and can be run
either programmatically or from the command line::

    python -m repro.bench fig11 --scale 0.5 --timeout 3

The ``scale`` knob shrinks graph sizes / workload counts proportionally so
the pure-Python engines finish on laptop budgets; the *shapes* the paper
reports (who wins, by what factor, where timeouts hit) are what each
experiment's docstring states and ``tests/test_experiments_smoke.py``
checks at tiny scale.
"""

from repro.bench.harness import ExperimentReport, Measurement, time_call
from repro.bench.experiments import EXPERIMENTS, get_experiment

__all__ = ["EXPERIMENTS", "ExperimentReport", "Measurement", "get_experiment", "time_call"]
