"""One-sided (RMA-style) get.

Section 7.4 of the paper implements COSMA's communication both with MPI
two-sided primitives and with MPI RMA (``MPI_Get`` / ``MPI_Accumulate``) to
exploit RDMA.  In the simulator the transferred volume is identical; what
differs is the latency accounting: a one-sided epoch charges a round only to
the origin rank (the target is passive), which is how RDMA lowers the latency
cost in practice.

COSMA's per-hop loop calls this get when ``use_rma`` is set, so that the
latency difference shows up in the simulated round counts.
"""

from __future__ import annotations

import numpy as np

from repro.machine.counters import ROUNDS
from repro.machine.simulator import DistributedMachine


def rma_get(
    machine: DistributedMachine,
    origin: int,
    target: int,
    block: np.ndarray,
    kind: str = "input",
) -> np.ndarray:
    """One-sided get: ``origin`` reads ``block`` from ``target``'s memory.

    The words travel from ``target`` to ``origin`` (same volume as a send),
    but only the origin's round counter advances -- the target does not
    participate actively.
    """
    if origin == target:
        return machine.transport.self_copy(block)
    delivered = machine.send(target, origin, block, kind=kind, count_round=False)
    machine.counters.data[ROUNDS, machine.check_rank(origin)] += 1
    return delivered

