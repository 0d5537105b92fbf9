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
and a Table 3-style cost model.  Importing this module is all it takes for
``AllGather1D`` to work in ``api.multiply`` / ``api.plan``, the harness, the
sweep engine and every campaign table.
"""

from __future__ import annotations

from repro.algorithms import Plan, register_algorithm
from repro.baselines.costs import io_cost_naive_1d
from repro.machine.collectives import allgather
from repro.machine.transport import as_operands, concat_payloads
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
    """Run the naive 1D algorithm; returns the assembled global product."""
    a_matrix, b_matrix, (m, n, k) = as_operands(a_matrix, b_matrix)
    q = _usable_ranks(m, k, scenario.p)
    ranks = list(range(q))
    i_ranges = split_offsets(m, q)
    b_ranges = split_offsets(k, q)
    for r in ranks:
        machine.rank(r).put("A_own", a_matrix[i_ranges[r][0]:i_ranges[r][1], :])
        machine.rank(r).put("B_own", b_matrix[b_ranges[r][0]:b_ranges[r][1], :])

    gathered = allgather(
        machine, ranks, {r: machine.rank(r).get("B_own") for r in ranks}, kind="input"
    )
    c_global = machine.zeros((m, n))
    for r in ranks:
        b_full = concat_payloads(gathered[r], axis=0)
        c_block = machine.local_multiply(r, machine.rank(r).get("A_own"), b_full)
        machine.rank(r).put("C_own", c_block)
        i0, i1 = i_ranges[r]
        c_global[i0:i1, :] = c_block
    machine.check_memory()
    return c_global
