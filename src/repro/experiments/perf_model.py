"""Analytic performance model: counters -> simulated runtime and % of peak.

The paper reports wall-clock runtimes and percentages of Piz Daint's peak
flop/s (Figures 1, 8-11, 13-14).  Absolute runtimes cannot be reproduced on a
simulator, but the *relative* performance of the algorithms is driven by their
communication volume, message counts and overlap -- all of which the simulator
measures exactly.  This module applies a standard alpha-beta-gamma model:

* computation time  = (flops on the busiest rank) / (peak flop rate per core),
* communication time = alpha * messages + beta * words   (busiest rank),
* without overlap the two add up; with overlap the per-round pipeline of
  :mod:`repro.core.overlap` hides whichever is smaller.

The % of peak is ``total useful flops / (p * runtime * peak per core)``, the
same definition the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms import CostPrediction, get_algorithm
from repro.core.overlap import even_rounds
from repro.experiments.harness import AlgorithmRun
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec
from repro.workloads.scaling import Scenario


@dataclass(frozen=True)
class TimeBreakdown:
    """Simulated runtime split into its components (Figure 12)."""

    computation: float
    input_communication: float
    output_communication: float
    total_no_overlap: float
    total_with_overlap: float

    @property
    def communication(self) -> float:
        return self.input_communication + self.output_communication

    @property
    def communication_fraction(self) -> float:
        if self.total_no_overlap == 0:
            return 0.0
        return self.communication / self.total_no_overlap


def time_breakdown(run: AlgorithmRun, spec: MachineSpec = PIZ_DAINT_LIKE) -> TimeBreakdown:
    """Split a run's simulated time into compute / input comm / output comm."""
    comp = spec.compute_time(run.max_flops_per_rank)
    words = float(run.max_words_per_rank) / 2.0  # sent+received double-counts volume
    messages = float(run.max_messages_per_rank) / 2.0
    comm = spec.communication_time(words, messages)
    total_attrib = run.input_words_per_rank + run.output_words_per_rank
    if total_attrib > 0:
        input_fraction = run.input_words_per_rank / total_attrib
    else:
        input_fraction = 1.0
    comm_in = comm * input_fraction
    comm_out = comm * (1.0 - input_fraction)
    rounds = max(1, run.rounds)
    overlap = even_rounds(comm, comp, rounds)
    return TimeBreakdown(
        computation=comp,
        input_communication=comm_in,
        output_communication=comm_out,
        total_no_overlap=comp + comm,
        total_with_overlap=overlap.total_with_overlap,
    )


def simulated_time(
    run: AlgorithmRun,
    spec: MachineSpec = PIZ_DAINT_LIKE,
    overlap: bool = False,
) -> float:
    """Simulated wall-clock time of a run under the alpha-beta-gamma model."""
    breakdown = time_breakdown(run, spec)
    return breakdown.total_with_overlap if overlap else breakdown.total_no_overlap


def percent_of_peak(
    run: AlgorithmRun,
    spec: MachineSpec = PIZ_DAINT_LIKE,
    overlap: bool = True,
) -> float:
    """Percentage of the machine's peak flop/s the run achieves.

    Uses the *useful* flops ``2 m n k`` of the problem (not the flops actually
    executed, which may include idle-rank imbalance), divided by
    ``p * runtime * peak-per-core`` -- the paper's definition.
    """
    shape = run.scenario.shape
    runtime = simulated_time(run, spec, overlap=overlap)
    if runtime <= 0:
        return 100.0
    peak = run.scenario.p * spec.peak_flops_per_core * runtime
    return 100.0 * shape.flops / peak


def speedup(run: AlgorithmRun, baseline: AlgorithmRun, spec: MachineSpec = PIZ_DAINT_LIKE) -> float:
    """Runtime ratio baseline / run (values > 1 mean ``run`` is faster)."""
    return simulated_time(baseline, spec, overlap=True) / simulated_time(run, spec, overlap=True)


def analytic_time(
    algorithm_or_prediction: str | CostPrediction,
    scenario: Scenario | None = None,
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> float:
    """Alpha-beta-gamma runtime from the *analytic* prediction: the Table 3
    I/O formula and the plan's counted rounds.

    Where :func:`simulated_time` prices the counters the simulator measured,
    this prices ``AlgorithmSpec.cost`` -- the sweep aggregator joins the two
    so every stored run carries its model error.  Accepts either an algorithm name plus a scenario, or a ready-made
    :class:`~repro.algorithms.CostPrediction`.
    """
    if isinstance(algorithm_or_prediction, CostPrediction):
        prediction = algorithm_or_prediction
    else:
        if scenario is None:
            raise ValueError("a scenario is required when passing an algorithm name")
        prediction = get_algorithm(algorithm_or_prediction).cost(scenario)
        if prediction is None:
            raise ValueError(f"{algorithm_or_prediction!r} has no Table 3 I/O formula")
    compute = spec.compute_time(prediction.flops_per_rank)
    comm = spec.communication_time(prediction.io_words_per_rank, prediction.latency_rounds)
    return compute + comm
