"""The time model: a run's counters -> simulated runtime and % of peak.

The paper reports wall-clock runtimes and percentages of Piz Daint's peak
flop/s (Figures 1, 8-11, 13-14).  Absolute runtimes cannot be reproduced on a
simulator, but the *relative* performance of the algorithms is driven by their
communication volume, rounds and overlap -- all of which the simulator
counts exactly.  :func:`time_breakdown` is the one alpha-beta-gamma price of
a run, built only from what the run counted on its busiest rank:

* computation time   = ``gamma * max_flops_per_rank``,
* communication time = ``alpha * rounds + beta * max_words_per_rank / 2``
  (a word is counted once sent and once received),
* without overlap the two add up; with overlap (section 7.3's double
  buffering) round ``t``'s multiplication hides round ``t+1``'s fetch.  Split
  evenly over ``R`` rounds that pipeline takes
  ``(comm + comp) / R + (R - 1) / R * max(comm, comp)``, which is
  ``max(comm, comp) + min(comm, comp) / R``.

``rounds`` is what ``plan()`` predicts before the run
(``tests/test_rounds_chain.py``).  The % of peak is
``total useful flops / (p * runtime * peak per core)``, the same definition
the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import RunReport
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec


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


def time_breakdown(run: RunReport, spec: MachineSpec = PIZ_DAINT_LIKE) -> TimeBreakdown:
    """Price a run's counted flops, rounds and words (see the module docstring)."""
    comp = spec.compute_time(run.max_flops_per_rank)
    comm = spec.communication_time(run.max_words_per_rank / 2.0, run.rounds)
    total_attrib = run.input_words_per_rank + run.output_words_per_rank
    if total_attrib > 0:
        input_fraction = run.input_words_per_rank / total_attrib
    else:
        input_fraction = 1.0
    return TimeBreakdown(
        computation=comp,
        input_communication=comm * input_fraction,
        output_communication=comm * (1.0 - input_fraction),
        total_no_overlap=comp + comm,
        total_with_overlap=max(comm, comp) + min(comm, comp) / max(1, run.rounds),
    )


def simulated_time(run: RunReport, spec: MachineSpec = PIZ_DAINT_LIKE) -> float:
    """Simulated wall-clock time of a run: the overlapped total."""
    return time_breakdown(run, spec).total_with_overlap


def percent_of_peak(run: RunReport, spec: MachineSpec = PIZ_DAINT_LIKE) -> float:
    """Percentage of the machine's peak flop/s the run achieves.

    Uses the *useful* flops ``2 m n k`` of the problem (not the flops actually
    executed, which may include idle-rank imbalance), divided by
    ``p * runtime * peak-per-core`` -- the paper's definition.
    """
    runtime = simulated_time(run, spec)
    if runtime <= 0:
        return 100.0
    peak = run.scenario.p * spec.peak_flops_per_core * runtime
    return 100.0 * run.scenario.shape.flops / peak
