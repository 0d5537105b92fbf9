"""High-level public API, built on the algorithm registry.

Most users only need :func:`multiply` (run any registered algorithm on a
simulated distributed machine and get a unified :class:`RunReport`),
:func:`plan` (the planning layer: fitted grid, predicted volume and
feasibility *without* executing anything) and the lower-bound helpers.  Everything else is available through the subpackages
documented in the README's architecture overview.

Backward compatibility: every pre-registry result field (``matrix``, ``grid``,
``processors_used``, ``mean_words_per_rank``, ``mean_received_per_rank``,
``total_communicated_words``, ``rounds``, ``lower_bound_per_rank``,
``optimality_ratio``) is still there; ``multiply``'s positional argument
order is unchanged, the registry arguments are keyword-only.  One behaviour
change: with ``max_idle_fraction=None`` (the new default) COSMA uses the
shared :func:`repro.algorithms.cosma_idle_fraction` heuristic instead of a
flat 3%, matching what the benchmark harness has always done.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import (
    CostPrediction, Plan, cosma_idle_fraction, get_algorithm, registered_algorithms,
)
from repro.experiments.harness import _execute
from repro.machine.transport import ShapeToken
from repro.pebbling.mmm_bounds import parallel_io_lower_bound, sequential_io_lower_bound
from repro.utils.validation import check_positive_int
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

__all__ = [
    "RunReport",
    "multiply",
    "plan",
    "list_algorithms",
    "cosma_idle_fraction",
    "lower_bound_sequential",
    "lower_bound_parallel",
]


@dataclass
class RunReport:
    """Unified result of one algorithm execution: plan + counters + bounds.

    Returned by :func:`multiply` (and printed by ``repro multiply``).  The
    benchmark harness and the sweep engine's per-run records use the leaner
    :class:`~repro.experiments.harness.AlgorithmRun`, which carries counters
    only; both are filled from the same run path.
    """

    #: Canonical registry name of the algorithm that ran.
    algorithm: str
    #: The numerical product, or ``None`` in ``volume`` mode (shape-token
    #: payloads carry no data).
    matrix: np.ndarray | None
    #: Processor grid the plan fitted (arity is algorithm-specific, e.g.
    #: ``(pm, pn, pk)`` for COSMA).
    grid: tuple[int, ...]
    #: Number of processors the fitted grid actually uses.
    processors_used: int
    #: Average words moved (sent + received) per rank.
    mean_words_per_rank: float
    #: Average words received per rank, over all ``p`` (for the grid family
    #: exactly ``plan.predicted_words_per_rank``).
    mean_received_per_rank: float
    #: Total words transferred across the whole machine.
    total_communicated_words: int
    #: Communication rounds on the busiest rank, as the run counted them;
    #: ``plan.rounds`` predicts the same count before the run.
    rounds: int
    #: Theorem 2 lower bound for this problem (per-processor words).
    lower_bound_per_rank: float
    #: The pre-execution plan (fitted grid, predicted words, feasibility).
    plan: Plan
    #: Transport mode the run used (``plane`` / ``volume``).
    mode: str = "plane"
    #: Whether the numerical result was checked against ``A @ B``.
    verified: bool = True
    #: Outcome of that check (``True`` whenever verification was skipped).
    correct: bool = True
    #: Maximum words moved through any rank (critical path).
    max_words_per_rank: int = 0
    total_flops: int = 0
    #: The analytic prediction (Table 3 I/O, planned rounds), when the
    #: algorithm has an I/O formula.
    cost: CostPrediction | None = None

    @property
    def optimality_ratio(self) -> float:
        """The busiest domain's I/O divided by the Theorem 2 bound: the plan's
        :attr:`~repro.algorithms.Plan.optimality_ratio`, whose docstring
        states the claim the tests check."""
        return self.plan.optimality_ratio


def _api_scenario(m: int, n: int, k: int, processors: int, memory_words: int) -> Scenario:
    return Scenario(
        name=f"api-{m}x{n}x{k}-p{processors}",
        shape=ProblemShape(m=m, n=n, k=k, family="api"),
        p=processors,
        memory_words=memory_words,
        regime="api",
    )


def _cosma_options(algorithm: str, max_idle_fraction: float | None) -> dict:
    """The runner / planner options for ``max_idle_fraction``: COSMA's
    grid-fitting delta when given, an error for any other algorithm."""
    if max_idle_fraction is None:
        return {}
    if algorithm != "COSMA":
        raise ValueError(
            "max_idle_fraction is COSMA's grid-fitting delta; "
            f"it does not apply to {algorithm}"
        )
    return {"max_idle_fraction": max_idle_fraction}


def multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    processors: int,
    memory_words: int,
    max_idle_fraction: float | None = None,
    *,
    algorithm: str = "COSMA",
    mode: str | None = None,
    shards: int = 1,
    plane_dtype: str = "float64",
) -> RunReport:
    """Multiply ``A @ B`` with any registered algorithm on a simulated machine.

    Parameters
    ----------
    a_matrix, b_matrix:
        Input matrices of shapes ``(m, k)`` and ``(k, n)``.
    processors:
        Number of simulated processors.
    memory_words:
        Local memory per processor, in matrix elements (words).
    max_idle_fraction:
        COSMA's grid-fitting ``delta`` (section 7.1).  ``None`` (default)
        uses the shared :func:`~repro.algorithms.cosma_idle_fraction`
        heuristic; passing a value for a non-COSMA algorithm is an error.
    algorithm:
        Registry name or alias (``"COSMA"``, ``"ScaLAPACK"``/``"SUMMA"``,
        ``"CTF"``/``"2.5D"``, ``"CARMA"``, ``"Cannon"``, or anything added
        via :func:`repro.algorithms.register_algorithm`).
    mode:
        Payload transport: ``"plane"`` runs and verifies real numerics;
        ``"volume"`` counts communication only (``matrix``
        is ``None``) and scales to paper-size grids.  ``None`` (default)
        takes what the inputs allow: ``"volume"`` for
        :class:`~repro.machine.transport.ShapeToken` inputs, ``"plane"`` for
        arrays.  Tokens carry no values, so tokens with ``"plane"`` raise.
    shards:
        Numeric execution policy for ``"plane"`` mode: number of worker
        processes COSMA's plane GEMM is sharded across over shared memory
        (:mod:`repro.machine.shard`); the other algorithms run in process
        whatever it says.  ``1`` (default) keeps the in-process engine.
        Counters are byte-identical across shard counts; shards never
        enters a sweep run's identity key.
    plane_dtype:
        Element dtype for numeric payloads (``"float64"`` default,
        ``"float32"`` opt-in).  Verification switches to relative
        tolerances appropriate for the dtype; counters are unchanged
        (words are elements, not bytes).

    Raises :class:`~repro.algorithms.InfeasiblePlan` (with the plan's
    ``reason``) for a point the algorithm's own plan calls infeasible.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.ones((32, 16)); b = np.ones((16, 24))
    >>> out = multiply(a, b, processors=4, memory_words=4096)
    >>> bool(np.allclose(out.matrix, a @ b))
    True
    >>> multiply(a, b, 4, 4096, algorithm="CARMA").correct
    True
    >>> tokens = ShapeToken((32, 16)), ShapeToken((16, 24))
    >>> multiply(*tokens, 4, 4096).mode
    'volume'
    """
    processors = check_positive_int(processors, "processors")
    memory_words = check_positive_int(memory_words, "memory_words")
    spec = get_algorithm(algorithm)
    options = _cosma_options(spec.name, max_idle_fraction)
    if mode is None:
        tokens = isinstance(a_matrix, ShapeToken) or isinstance(b_matrix, ShapeToken)
        mode = "volume" if tokens else "plane"
    m, k = a_matrix.shape if isinstance(a_matrix, ShapeToken) else np.shape(a_matrix)
    k2, n = b_matrix.shape if isinstance(b_matrix, ShapeToken) else np.shape(b_matrix)
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {(m, k)} x {(k2, n)}")
    scenario = _api_scenario(m, n, k, processors, memory_words)
    run_plan = spec.feasible_plan(scenario, **options)
    product, counters, mode, verified, correct = _execute(
        spec, scenario, a_matrix, b_matrix, mode=mode, span="multiply", verify=True, keep=True,
        options=options, shards=shards, plane_dtype=plane_dtype,
    )
    return RunReport(
        algorithm=spec.name,
        matrix=None if mode == "volume" else product,
        grid=run_plan.grid if run_plan.grid is not None else (processors,),
        processors_used=run_plan.processors_used or processors,
        mean_words_per_rank=counters.mean_words_per_rank(),
        mean_received_per_rank=counters.mean_received_per_rank(),
        total_communicated_words=counters.total_words_sent,
        rounds=counters.max_rounds(),
        lower_bound_per_rank=run_plan.lower_bound_per_rank,
        plan=run_plan,
        mode=mode,
        verified=verified,
        correct=correct,
        max_words_per_rank=counters.max_words_per_rank(),
        total_flops=counters.total_flops,
        cost=spec.cost(scenario),
    )


def plan(
    m: int,
    n: int,
    k: int,
    processors: int,
    memory_words: int,
    algorithm: str = "COSMA",
    max_idle_fraction: float | None = None,
) -> Plan:
    """Plan a run without executing it: fitted grid, predicted words, feasibility.

    This is the registry's planning layer (:meth:`AlgorithmSpec.plan`)
    exposed on explicit problem dimensions; the sweep engine uses the same
    layer to prune infeasible campaign points before fanning out workers.

    Examples
    --------
    >>> p = plan(256, 256, 256, processors=8, memory_words=65536)
    >>> p.feasible, p.processors_used <= 8
    (True, True)
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    processors = check_positive_int(processors, "processors")
    memory_words = check_positive_int(memory_words, "memory_words")
    spec = get_algorithm(algorithm)
    return spec.plan(_api_scenario(m, n, k, processors, memory_words),
                     **_cosma_options(spec.name, max_idle_fraction))


def list_algorithms() -> tuple[str, ...]:
    """Canonical names of every registered algorithm, in registration order."""
    return registered_algorithms()


def lower_bound_sequential(m: int, n: int, k: int, memory_words: int) -> float:
    """Theorem 1: sequential MMM I/O lower bound ``2mnk/sqrt(S) + mn``."""
    return sequential_io_lower_bound(m, n, k, memory_words)


def lower_bound_parallel(m: int, n: int, k: int, processors: int, memory_words: int) -> float:
    """Theorem 2: parallel MMM per-processor I/O lower bound."""
    return parallel_io_lower_bound(m, n, k, processors, memory_words)

