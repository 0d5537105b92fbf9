"""Experiment harness, performance model and report generators.

These modules regenerate every evaluation artifact of the paper:

* :mod:`repro.experiments.harness` runs any implemented algorithm on any
  :class:`~repro.workloads.scaling.Scenario` and records the measured
  communication counters (the mpiP substitute).
* :mod:`repro.experiments.perf_model` converts the counters into simulated
  runtimes and %-of-peak figures with an alpha-beta-gamma model, with and
  without communication-computation overlap.
* :mod:`repro.experiments.report` formats the per-figure/table outputs
  (Table 4, Figures 6-14) as plain-text tables/series.
"""

from repro.experiments.harness import AlgorithmRun, run_algorithm, run_scenario, sweep
from repro.experiments.perf_model import percent_of_peak, simulated_time
from repro.experiments.report import format_table, geometric_mean

__all__ = [
    "AlgorithmRun",
    "run_algorithm",
    "run_scenario",
    "sweep",
    "simulated_time",
    "percent_of_peak",
    "format_table",
    "geometric_mean",
]
