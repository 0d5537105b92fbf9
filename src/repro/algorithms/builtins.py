"""The paper's five comparison algorithms as registered :class:`AlgorithmSpec`\\ s.

The names mirror the paper's comparison targets: our SUMMA stands in for
ScaLAPACK, our 2.5D for CTF.  Each spec bundles the runner, a cheap planner
that calls the very function the runner derives its grid and schedule from
(never a copy of the derivation) without touching matrices, and the Table 3
I/O formula of
:mod:`repro.baselines.costs` (COSMA's I/O row is Theorem 2 itself).  Every
planner returns the words and the rounds the run will count and the busiest
domain's I/O that ``Plan.optimality_ratio`` holds against Theorem 2.

Every runner reads the same way: the operands at the machine's plane dtype,
the decomposition its planner builds, then the engine on it, which returns the
product (:func:`~repro.core.cosma.cosma_run`,
:func:`~repro.baselines.summa.run_panels`,
:func:`~repro.baselines.grid25d.grid25d_run`,
:func:`~repro.baselines.cannon.cannon_run`,
:func:`~repro.baselines.cuboid.cuboid_run`).

Importing :mod:`repro.algorithms` registers everything here exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import AlgorithmSpec, Plan, get_algorithm, register
from repro.baselines import costs
from repro.baselines.cannon import cannon_decomposition, cannon_run, skew_words
from repro.baselines.carma import carma_messages, carma_table, usable_ranks
from repro.baselines.cuboid import counted_rounds as cuboid_rounds
from repro.baselines.cuboid import cuboid_run
from repro.baselines.grid25d import grid25d_decomposition, grid25d_run
from repro.baselines.summa import run_panels, summa_decomposition
from repro.core.cosma import cosma_run, counted_rounds, received_words
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid, domain_io_words
from repro.machine.transport import as_operands
from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.workloads.scaling import Scenario


def cosma_idle_fraction(p: int, base: float = 0.03) -> float:
    """COSMA's grid-fitting allowance ``delta`` for a ``p``-rank machine.

    The paper uses ``delta = 3%`` on thousands of ranks; at simulator scale a
    3% allowance of e.g. 9 ranks cannot drop even one rank, so allow the grid
    optimizer to idle at least one full rank -- the trade-off ``FitRanks`` is
    designed to make (Figure 5: dropping 1 of 65 ranks cuts volume ~36%).

    This is the one home of the heuristic, shared by the harness, the public
    API (``api.multiply`` / ``api.plan`` with ``max_idle_fraction=None``) and
    the CLI; it used to be copy-adapted inside ``harness._run_cosma``.
    """
    if p <= 1:
        return 0.0
    return max(base, 1.5 / p)


def _bound(scenario: Scenario) -> float:
    shape = scenario.shape
    return parallel_io_lower_bound(
        shape.m, shape.n, shape.k, scenario.p, scenario.memory_words
    )


def _grid_plan(algorithm: str, scenario: Scenario, decomposition: CosmaDecomposition,
               exchange: str, arity: int = 3, extra_received: np.ndarray | int = 0,
               extra_rounds: int = 0) -> Plan:
    """The plan of a grid-family run on ``decomposition``, the very one the
    runner executes with the ``exchange`` kind: its received words and rounds
    are the run's count (:func:`~repro.core.cosma.received_words`,
    :func:`~repro.core.cosma.counted_rounds`, plus ``extra_received`` /
    ``extra_rounds`` per used rank), and rank 0 holds the largest extents, so
    the busiest domain."""
    received = received_words(decomposition) + extra_received
    rounds = counted_rounds(decomposition, exchange) + extra_rounds
    lm, ln, lk = (int(bounds[1] - bounds[0]) for bounds in (
        decomposition.i_bounds, decomposition.j_bounds, decomposition.k_bounds))
    return Plan(
        algorithm=algorithm, scenario=scenario, feasible=True,
        grid=decomposition.grid.as_tuple()[:arity],
        processors_used=decomposition.p_used,
        rounds=int(rounds.max()),
        predicted_words_per_rank=int(received.sum()) / scenario.p,
        domain_io_words=domain_io_words(lm, ln, lk),
        lower_bound_per_rank=_bound(scenario),
    )


# ---------------------------------------------------------------------------
# COSMA
# ---------------------------------------------------------------------------
def _run_cosma(a, b, scenario, machine, max_idle_fraction=None, grid=None):
    # A sharded plane run hands the caller's arrays to the shard pool, which
    # casts them while it fills their segments (cosma._sharded_gemm).
    sharded = machine.shards > 1 and machine.mode == "plane"
    a, b, (m, n, k) = as_operands(a, b, machine, cast=not sharded)
    if grid is None:
        # The memoized plan's grid, so the fitting search runs once per scenario.
        options = {} if max_idle_fraction is None else {"max_idle_fraction": max_idle_fraction}
        grid = get_algorithm("COSMA").feasible_plan(scenario, **options).grid
    decomposition = build_decomposition(
        m, n, k, scenario.p, scenario.memory_words, grid=ProcessorGrid(*grid))
    return cosma_run(machine, a, b, decomposition)


def _plan_cosma(scenario: Scenario, max_idle_fraction=None) -> Plan:
    shape = scenario.shape
    delta = (cosma_idle_fraction(scenario.p)
             if max_idle_fraction is None else max_idle_fraction)
    # The same call the executor makes before touching any matrix data, so
    # the planned grid *is* the executed grid.
    return _grid_plan("COSMA", scenario, build_decomposition(
        shape.m, shape.n, shape.k, scenario.p, scenario.memory_words,
        max_idle_fraction=delta,
    ), "tree")


# ---------------------------------------------------------------------------
# ScaLAPACK (SUMMA) and Cannon: the 2D decompositions
# ---------------------------------------------------------------------------
def _run_summa(a, b, scenario, machine):
    a, b, (m, n, k) = as_operands(a, b, machine)
    decomposition = summa_decomposition(m, n, k, scenario.p, scenario.memory_words)
    return run_panels(machine, a, b, decomposition, "tree")


def _plan_summa(scenario: Scenario) -> Plan:
    shape = scenario.shape
    return _grid_plan("ScaLAPACK", scenario, summa_decomposition(
        shape.m, shape.n, shape.k, scenario.p, scenario.memory_words), "tree", arity=2)


def _run_cannon(a, b, scenario, machine):
    a, b, (m, n, k) = as_operands(a, b, machine)
    decomposition = cannon_decomposition(m, n, k, scenario.p, scenario.memory_words)
    return cannon_run(machine, a, b, decomposition)


def _plan_cannon(scenario: Scenario) -> Plan:
    shape = scenario.shape
    decomposition = cannon_decomposition(
        shape.m, shape.n, shape.k, scenario.p, scenario.memory_words)
    # The skew: every rank of the grid pays a round per shift, A's and B's.
    return _grid_plan("Cannon", scenario, decomposition, "ring", arity=2,
                      extra_received=skew_words(decomposition), extra_rounds=2)


# ---------------------------------------------------------------------------
# CTF (2.5D) and CARMA (recursive)
# ---------------------------------------------------------------------------
def _run_25d(a, b, scenario, machine):
    a, b, (m, n, k) = as_operands(a, b, machine)
    decomposition = grid25d_decomposition(m, n, k, scenario.p, scenario.memory_words)
    return grid25d_run(machine, a, b, decomposition)


def _plan_25d(scenario: Scenario) -> Plan:
    shape = scenario.shape
    return _grid_plan("CTF", scenario, grid25d_decomposition(
        shape.m, shape.n, shape.k, scenario.p, scenario.memory_words), "gather")


def _run_carma(a, b, scenario, machine):
    a, b, (m, n, k) = as_operands(a, b, machine)
    usable = usable_ranks(m, n, k, scenario.p)
    # The table and its messages as the plan memoized them.
    return cuboid_run(machine, a, b, carma_table(m, n, k, usable),
                      carma_messages(m, n, k, usable))


def _plan_carma(scenario: Scenario) -> Plan:
    shape = scenario.shape
    m, n, k = shape.m, shape.n, shape.k
    usable = usable_ranks(m, n, k, scenario.p)
    table, messages = carma_table(m, n, k, usable), carma_messages(m, n, k, usable)
    extents = np.diff(table[:, 1:].reshape(-1, 3, 2), axis=2)[:, :, 0]
    return Plan(
        algorithm="CARMA", scenario=scenario, feasible=True,
        grid=(usable,), processors_used=usable,
        rounds=int(cuboid_rounds(table, messages).max()),
        # The count: the inputs a rank receives, the partial C its owner does.
        predicted_words_per_rank=sum(int(words.sum()) for _, _, words in messages) / scenario.p,
        domain_io_words=int(domain_io_words(*extents.T).max()),
        lower_bound_per_rank=_bound(scenario),
    )


def _register_builtins() -> None:
    register(AlgorithmSpec(
        name="COSMA", runner=_run_cosma, plan_fn=_plan_cosma,
        io_cost=parallel_io_lower_bound, default_comparison=True,
        description="near communication-optimal MMM (this paper)",
    ))
    register(AlgorithmSpec(
        name="ScaLAPACK", runner=_run_summa, plan_fn=_plan_summa,
        io_cost=lambda m, n, k, p, s: costs.io_cost_2d(m, n, k, p),
        aliases=("SUMMA", "2D"), default_comparison=True,
        description="2D SUMMA, the algorithm behind ScaLAPACK's PDGEMM",
    ))
    register(AlgorithmSpec(
        name="CTF", runner=_run_25d, plan_fn=_plan_25d,
        io_cost=costs.io_cost_25d,
        aliases=("2.5D",), default_comparison=True,
        description="2.5D decomposition of Solomonik & Demmel (CTF stand-in)",
    ))
    register(AlgorithmSpec(
        name="CARMA", runner=_run_carma, plan_fn=_plan_carma,
        io_cost=costs.io_cost_carma, default_comparison=True,
        description="recursive CARMA decomposition of Demmel et al.",
    ))
    register(AlgorithmSpec(
        name="Cannon", runner=_run_cannon, plan_fn=_plan_cannon,
        io_cost=lambda m, n, k, p, s: costs.io_cost_2d(m, n, k, p),
        description="Cannon's 2D algorithm (square grids; subsumed by SUMMA)",
    ))


_register_builtins()
