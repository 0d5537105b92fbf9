"""A naive 1D (row-striped) all-gather baseline, self-registered on import.

This is the leftmost point of the paper's Figure 2 "algorithm evolution":
every processor owns a stripe of A's rows (and the matching stripe of C) and
must see *all* of B, which the ranks exchange with a ring all-gather.  Its
per-processor I/O cost ``kn + mk/p + mn/p`` is dominated by the ``kn`` term
-- replicating B everywhere -- which is exactly what the 2D, 2.5D and COSMA
decompositions progressively eliminate.

The module doubles as the reference example for extending the algorithm
registry (README: "adding a new algorithm"): a runner with the uniform
``(a, b, scenario, machine)`` signature, decorated with
:func:`~repro.algorithms.register_algorithm`, optionally carrying a planner
and a Table 3-style cost model.  The runner has the shape of every engine in
the library: it posts its schedule's transfers (one
:meth:`~repro.machine.simulator.DistributedMachine.post_transfers` for the
whole ring), its ranks' resident blocks
(:meth:`~repro.machine.simulator.DistributedMachine.post_resident`) and its
flops, and computes the product with one GEMM -- none in ``volume`` mode.
Importing this module is all it takes for ``AllGather1D`` to work in
``api.multiply`` / ``api.plan``, the harness, the sweep engine and every
campaign table.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import Plan, register_algorithm
from repro.baselines.costs import io_cost_naive_1d
from repro.machine.counters import FLOPS, ROUNDS
from repro.machine.transport import ShapeToken, as_operands
from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.utils.intmath import ceil_div, split_offsets
from repro.workloads.scaling import Scenario


def _usable_ranks(m: int, k: int, p: int) -> int:
    """Ranks that get a non-empty row stripe of both A and B."""
    return max(1, min(p, m, k))


def _plan_allgather(scenario: Scenario) -> Plan:
    shape = scenario.shape
    q = _usable_ranks(shape.m, shape.k, scenario.p)
    stripe = ceil_div(shape.m, q)  # the first, longest row stripe
    return Plan(
        algorithm="AllGather1D", scenario=scenario, feasible=True,
        grid=(q,), processors_used=q,
        rounds=max(1, q - 1),  # ring all-gather steps
        predicted_words_per_rank=io_cost_naive_1d(shape.m, shape.n, shape.k, q),
        # An m/q x n x k domain: its A stripe, all of B, its C stripe.
        domain_io_words=stripe * shape.k + shape.k * shape.n + stripe * shape.n,
        lower_bound_per_rank=parallel_io_lower_bound(
            shape.m, shape.n, shape.k, scenario.p, scenario.memory_words
        ),
    )


@register_algorithm(
    "AllGather1D",
    aliases=("naive-1D",),
    plan=_plan_allgather,
    io_cost=lambda m, n, k, p, s: io_cost_naive_1d(m, n, k, p),
    latency_cost=lambda m, n, k, p, s: float(max(1, p - 1)),
    description="row-striped 1D decomposition; all-gathers B (Figure 2's naive baseline)",
)
def allgather_multiply(a_matrix, b_matrix, scenario, machine):
    """Run the naive 1D algorithm; returns the assembled global product.

    Rank ``r < q`` owns row stripe ``r`` of A (and of C) and row stripe ``r``
    of B.  The ring all-gather of B runs ``q - 1`` steps: in step ``s`` the
    rank at position ``pos`` passes block ``(pos - s) % q`` -- its own block
    first, then the one it received the step before -- to its right
    neighbour, and every rank pays one round per step (a sendrecv, so a
    transfer is not also charged as a round of its own).  Each rank ends up
    holding all of B, like MPI_Allgather: ``(q - 1)`` blocks received.
    """
    a_matrix, b_matrix, (m, n, k) = as_operands(a_matrix, b_matrix, machine)
    q = _usable_ranks(m, k, scenario.p)
    lm = np.array([hi - lo for lo, hi in split_offsets(m, q)], dtype=np.int64)
    lk = np.array([hi - lo for lo, hi in split_offsets(k, q)], dtype=np.int64)

    if machine.trace is not None:
        machine.trace.collective("allgather", q)
    senders = np.tile(np.arange(q), q - 1)
    blocks = (senders - np.repeat(np.arange(q - 1), q)) % q
    machine.post_transfers(senders, (senders + 1) % q, lk[blocks] * n, kind="input",
                           count_rounds=False)
    machine.counters.data[ROUNDS, :q] += q - 1

    used = slice(0, q)
    machine.post_resident("A_own", used, lm * k)
    machine.post_resident("B_own", used, lk * n)
    machine.post_resident("C_own", used, lm * n)
    machine.counters.data[FLOPS, :q] += 2 * lm * k * n  # each stripe times all of B
    machine.check_memory()
    if machine.transport.counters_only:
        return ShapeToken((m, n))
    return a_matrix @ b_matrix
