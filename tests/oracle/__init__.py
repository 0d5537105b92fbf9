"""The per-hop reference: every registered algorithm executed hop by hop.

The library runs each algorithm as one batched engine (array expressions for
the counters, stacked GEMMs for the product).  This package runs the same
schedules the slow, obvious way, on a :class:`~oracle.machine.HopMachine`:
blocks in per-rank stores, one transfer per hop, resident words read off the
stored blocks.  The parity suites hold every engine to it -- every cell of the
counter matrix, the peak resident words, the round boundaries and the product.

It stays an independent reference by construction: from ``repro`` it reads
only the decompositions and domain tables (what each rank owns and computes)
and :class:`~repro.machine.counters.CommCounters`, never an engine helper.

:func:`run` takes a registered algorithm's name and runs its oracle with the
decomposition the registry's runner would build.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import cosma_idle_fraction
from repro.baselines.cannon import cannon_decomposition
from repro.baselines.carma import carma_table, usable_ranks
from repro.baselines.grid25d import grid25d_decomposition
from repro.baselines.summa import summa_decomposition
from repro.core.decomposition import build_decomposition

from . import cuboid, grid
from .machine import HopMachine

__all__ = ["HopMachine", "run"]


def run(name: str, scenario, a_matrix, b_matrix, machine: HopMachine | None = None):
    """Run the oracle of registered algorithm ``name`` on ``scenario``'s
    machine; returns ``(machine, product)``."""
    a_matrix, b_matrix = np.asarray(a_matrix, dtype=np.float64), np.asarray(b_matrix, dtype=np.float64)
    (m, k), n = a_matrix.shape, b_matrix.shape[1]
    p, memory_words = scenario.p, scenario.memory_words
    machine = machine if machine is not None else HopMachine(p)
    if name == "COSMA":
        decomposition = build_decomposition(m, n, k, p, memory_words,
                                            max_idle_fraction=cosma_idle_fraction(p))
        product, _ = grid.cosma(machine, decomposition, a_matrix, b_matrix)
    elif name == "ScaLAPACK":
        product = grid.panels(machine, summa_decomposition(m, n, k, p, memory_words),
                              a_matrix, b_matrix, "tree")
    elif name == "Cannon":
        product = grid.cannon(machine, cannon_decomposition(m, n, k, p, memory_words),
                              a_matrix, b_matrix)
    elif name == "CTF":
        product = grid.grid25d(machine, grid25d_decomposition(m, n, k, p, memory_words),
                               a_matrix, b_matrix)
    elif name == "CARMA":
        product = cuboid.cuboid(machine, carma_table(m, n, k, usable_ranks(m, n, k, p)),
                                a_matrix, b_matrix)
    elif name == "AllGather1D":
        product = cuboid.allgather_1d(machine, max(1, min(p, m, k)), a_matrix, b_matrix)
    else:
        raise KeyError(f"no per-hop reference for {name!r}")
    return machine, product
