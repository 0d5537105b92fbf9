"""Communication-computation overlap model (section 7.3).

COSMA's rounds naturally pipeline: while round ``t`` is being multiplied, the
panels of round ``t+1`` are already being fetched (double buffering, RDMA
back-end).  Given per-round communication and computation times this module
computes the total runtime with and without overlap.  The Figure 12
breakdowns (:func:`repro.experiments.perf_model.time_breakdown`) split a run's
measured totals evenly over its rounds (:func:`even_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class OverlapTimeline:
    """Total times of a pipelined execution."""

    total_no_overlap: float
    total_with_overlap: float
    communication_time: float
    computation_time: float

    @property
    def speedup(self) -> float:
        if self.total_with_overlap == 0:
            return 1.0
        return self.total_no_overlap / self.total_with_overlap

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the communication hidden behind computation."""
        hidden = self.total_no_overlap - self.total_with_overlap
        if self.communication_time == 0:
            return 1.0
        return max(0.0, min(1.0, hidden / self.communication_time))


def pipeline_times(
    comm_times: Sequence[float],
    comp_times: Sequence[float],
) -> OverlapTimeline:
    """Compute pipelined and sequential total times for per-round costs.

    Without overlap every round's communication and computation are serialized:
    ``sum(comm) + sum(comp)``.  With double buffering, round ``t``'s
    computation overlaps round ``t+1``'s communication, so the total is
    ``comm_0 + sum_{t>0} max(comm_t, comp_{t-1}) + comp_last``.
    """
    if len(comm_times) != len(comp_times):
        raise ValueError(
            f"per-round lists must have equal length, got {len(comm_times)} and {len(comp_times)}"
        )
    if any(t < 0 for t in comm_times) or any(t < 0 for t in comp_times):
        raise ValueError("round times must be non-negative")
    total_comm = float(sum(comm_times))
    total_comp = float(sum(comp_times))
    no_overlap = total_comm + total_comp
    if not comm_times:
        return OverlapTimeline(0.0, 0.0, 0.0, 0.0)
    with_overlap = comm_times[0]
    for index in range(1, len(comm_times)):
        with_overlap += max(comm_times[index], comp_times[index - 1])
    with_overlap += comp_times[-1]
    return OverlapTimeline(
        total_no_overlap=no_overlap,
        total_with_overlap=with_overlap,
        communication_time=total_comm,
        computation_time=total_comp,
    )


def even_rounds(total_comm: float, total_comp: float, rounds: int) -> OverlapTimeline:
    """Overlap model assuming the volume and work split evenly across ``rounds``."""
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    comm = [total_comm / rounds] * rounds
    comp = [total_comp / rounds] * rounds
    return pipeline_times(comm, comp)
