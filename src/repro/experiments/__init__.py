"""Experiment harness, performance model and report generators.

These modules regenerate every evaluation artifact of the paper:

* :mod:`repro.experiments.harness` runs any implemented algorithm on any
  :class:`~repro.workloads.scaling.Scenario` and records the measured
  communication counters (the mpiP substitute) in a
  :class:`~repro.experiments.harness.RunReport`.  :func:`repro.api.multiply`,
  :func:`run_algorithm` and :meth:`repro.sweeps.CampaignResult.runs` all
  return this one type; only ``multiply``'s carries the product
  (``matrix``).
* :mod:`repro.experiments.perf_model` prices what a run counted (busiest
  rank's flops, rounds and words) with one alpha-beta-gamma model into
  simulated runtimes and %-of-peak figures, with and without
  communication-computation overlap.
* :mod:`repro.experiments.report` formats the per-figure/table outputs
  (Table 4, Figures 6-14) as plain-text tables/series.
"""

from repro.experiments.harness import RunReport, run_algorithm, run_scenario
from repro.experiments.perf_model import percent_of_peak, simulated_time
from repro.experiments.report import format_table, geometric_mean

__all__ = [
    "RunReport",
    "run_algorithm",
    "run_scenario",
    "simulated_time",
    "percent_of_peak",
    "format_table",
    "geometric_mean",
]
