"""The algorithm registry: one ``Algorithm`` interface for plan / execute / cost.

The paper's whole argument is a *comparison* -- COSMA against ScaLAPACK, CTF,
CARMA and Cannon on the same scenarios, against the same Theorem 1/2 bounds.
This module makes "an algorithm" a first-class object so that comparison is
data, not scattered special cases:

* :class:`AlgorithmSpec` bundles a uniform runner
  (``runner(a, b, scenario, machine) -> product``: in ``plane`` mode a
  :class:`~repro.machine.transport.GemmProduct`, the GEMM boxes of its
  schedule, or a dense array; in ``volume`` mode a shape token), a cheap planner
  (``plan(scenario) -> Plan``: fitted grid, counted rounds, predicted
  per-rank words, feasibility -- *without* executing anything), the Table 3
  I/O formula (:meth:`AlgorithmSpec.cost`, with the plan's rounds), a
  minimum-memory capability flag and aliases.  Every runner takes both execution modes:
  arrays (``plane``) and shape tokens (``volume``).
* :func:`register` / the :func:`register_algorithm` decorator add specs to
  the process-wide registry; :mod:`repro.algorithms.builtins` registers the
  paper's five comparison targets, and ``extensions/`` modules self-register
  on import (see :mod:`repro.extensions.allgather`).

The registry is consumed by :mod:`repro.api` (``multiply`` / ``plan``), the
benchmark harness, the CLI (choice lists and validation) and the sweep
engine (spec validation and infeasible-point pruning).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.carma import carma_messages, carma_table
from repro.core.decomposition import decomposition_cache_clear
from repro.machine.transport import GemmProduct
from repro.pebbling.mmm_bounds import parallel_io_lower_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.simulator import DistributedMachine
    from repro.machine.transport import ShapeToken
    from repro.workloads.scaling import Scenario


class UnknownAlgorithmError(KeyError):
    """Raised for algorithm names (or aliases) the registry does not know."""

    def __init__(self, name: str, known: tuple[str, ...]):
        super().__init__(f"unknown algorithm {name!r}; known: {sorted(known)}")
        self.name = name
        self.known = tuple(sorted(known))

    def __str__(self) -> str:  # KeyError would re-quote the message
        return self.args[0]


class InfeasiblePlan(ValueError):
    """Raised when a scenario is run whose plan is infeasible; the message is
    the plan's ``reason``, and the campaign stores this class's name as the
    error type of the points it prunes."""

    def __init__(self, plan: "Plan"):
        super().__init__(plan.reason)
        self.plan = plan


@dataclass(frozen=True)
class Plan:
    """What an algorithm *would* do on a scenario, derived without executing it.

    Plans are cheap (grid fitting and closed-form arithmetic only -- no
    matrices, no simulator) which is what lets the sweep runner prune
    infeasible points before fanning out worker processes, and the CLI answer
    "what grid / how many words" questions instantly at paper scale.
    """

    algorithm: str
    scenario: "Scenario"
    #: Whether the algorithm can meaningfully run this scenario.  ``False``
    #: only for points that violate a hard precondition (invalid parameters,
    #: or aggregate memory below the ``p*S >= mn + mk + nk`` requirement of
    #: the parallel schedule, section 6.3).  Every entry point that runs a
    #: scenario refuses an infeasible one (:meth:`AlgorithmSpec.feasible_plan`,
    #: a campaign's pruning pass); the engines themselves stay lenient.
    feasible: bool
    #: Human-readable explanation when infeasible; empty otherwise.
    reason: str = ""
    #: Fitted processor grid as a tuple.  The arity is algorithm-specific:
    #: ``(pm, pn, pk)`` for COSMA/2.5D, ``(pm, pn)`` for the 2D algorithms,
    #: ``(p,)`` for 1D/recursive decompositions.  ``None`` when unknown.
    grid: tuple[int, ...] | None = None
    #: Ranks the fitted grid actually uses (<= scenario.p).
    processors_used: int = 0
    #: Communication rounds on the busiest rank, the run's ``rounds``, every
    #: tree, ring, skew and reduction hop included (the grid family's and
    #: CARMA's ``counted_rounds``); the scheduled steps are ``num_steps``.
    rounds: int = 0
    #: Words received per rank, the mean over ``scenario.p``: for the grid
    #: family (COSMA, ScaLAPACK, CTF, Cannon) the run's exact count on the
    #: fitted grid, ``RunReport.mean_received_per_rank`` to the last bit; for
    #: CARMA and extensions a Table 3-style formula.
    predicted_words_per_rank: float = 0.0
    #: Theorem 2 lower bound for the scenario (per-processor words).
    lower_bound_per_rank: float = 0.0
    #: Words the busiest rank's local domain touches: the largest
    #: ``lm lk + lk ln + lm ln`` over used ranks (A and B projections plus the
    #: C block), the quantity Theorem 2 bounds.  ``None`` when unknown.
    domain_io_words: int | None = None

    @property
    def optimality_ratio(self) -> float:
        """The busiest domain's I/O divided by the Theorem 2 bound (``nan``
        when the plan knows no domain).

        Checked claim: it is at least 1 whenever the largest-volume domain's
        C block ``x = lm ln`` fits in S.  In the extra-memory regime by
        AM-GM on the three projections of a domain of volume
        ``V >= mnk / p``; in the limited regime because
        ``lm lk + lk ln + x >= 2V / sqrt(x) + x``, which decreases in ``x``
        for ``x <= S <= V^(2/3)`` and so is at least
        ``2V / sqrt(S) + S``.
        """
        if self.domain_io_words is None or self.lower_bound_per_rank <= 0:
            return float("nan")
        return self.domain_io_words / self.lower_bound_per_rank


@dataclass(frozen=True)
class CostPrediction:
    """The analytic per-processor cost of one algorithm on one scenario: its
    Table 3 I/O formula, and the rounds its plan counts."""

    algorithm: str
    #: Table 3 per-processor I/O (words moved through the slowest processor).
    io_words_per_rank: float
    #: The plan's ``rounds`` (0 for an algorithm without a planner).
    latency_rounds: float
    #: Useful flops per processor under perfect load balance: ``2mnk / p``.
    flops_per_rank: float


#: Uniform runner signature: ``runner(a, b, scenario, machine) -> product``,
#: a :class:`~repro.machine.transport.GemmProduct` or an array in ``plane``
#: mode, a :class:`~repro.machine.transport.ShapeToken` in ``volume`` mode.
RunnerFn = Callable[..., "GemmProduct | np.ndarray | ShapeToken"]
#: Planner signature: ``plan(scenario, **options) -> Plan``.
PlanFn = Callable[..., Plan]
#: Table 3 I/O-formula signature: ``cost(m, n, k, p, s) -> float``.
CostFn = Callable[[int, int, int, int, int], float]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the system needs to treat one algorithm as pluggable data."""

    #: Canonical name (the paper's comparison-target name where applicable).
    name: str
    #: ``runner(a, b, scenario, machine) -> product`` -- the uniform
    #: execution entry point; payloads may be arrays or shape tokens, and
    #: a ``plane`` product may be a GemmProduct, computed when asked
    #: (the harness checks it one row stripe at a time).
    runner: RunnerFn
    #: Optional scenario planner; the generic feasibility-only plan is used
    #: when omitted.
    plan_fn: PlanFn | None = None
    #: Table 3 per-processor I/O formula ``(m, n, k, p, s) -> words``, read by
    #: :meth:`cost` (and with it the sweep aggregator, the performance model
    #: and the CLI bounds table).
    io_cost: CostFn | None = None
    #: Alternative lookup names (case-insensitive), e.g. ``SUMMA`` for
    #: ScaLAPACK.
    aliases: tuple[str, ...] = ()
    #: Minimum per-rank memory in words the algorithm needs at all
    #: (capability flag; scenario-dependent requirements belong in the plan).
    min_memory_words: int = 1
    #: Whether the algorithm belongs to ``DEFAULT_ALGORITHMS`` (the subset
    #: the paper's figures compare).
    default_comparison: bool = False
    description: str = ""

    def run(self, a_matrix, b_matrix, scenario: "Scenario",
            machine: "DistributedMachine", **options) -> "np.ndarray | ShapeToken":
        """Execute the algorithm on an existing machine; returns the product
        as a writable dense array (a GemmProduct filled stripe by stripe), or
        a token in ``volume`` mode."""
        product = self.runner(a_matrix, b_matrix, scenario, machine, **options)
        return np.asarray(product) if isinstance(product, GemmProduct) else product

    def plan(self, scenario: "Scenario", **options) -> Plan:
        """Plan the scenario without executing it (see :class:`Plan`).

        Results are memoized per ``(algorithm, scenario, options)`` in a
        process-wide LRU (:func:`plan_cache_clear` resets it; registering or
        unregistering an algorithm does so automatically), so repeated
        planning of the same point -- sweep pruning, ``api.multiply``'s
        plan-then-execute, cost aggregation -- fits the grid exactly once.
        Scenarios and plans are immutable, making the cached object safe to
        share.

        Beneath the plan, memoized with the schedule object it builds, are
        the arrays its runs read off that object: a grid-family
        decomposition's block sides, ownership widths and whole-exchange
        sums (cached properties of
        :class:`~repro.core.decomposition.CosmaDecomposition`, to which a
        run adds its owned-words vectors) and a CARMA table's owner messages
        (:func:`~repro.baselines.carma.carma_messages`), all read-only.  A
        run of a planned scenario recomputes none of them, and a campaign's
        workers, forked after its pruning pass, inherit them.  Their size:
        1.3 MiB at plan time over the 240 points of the ``grid240`` campaign
        (3.1 MiB once every point has run), and 0.2 / 2.9 / 11.7 MiB after
        planning and running the five built-ins at 4096^3 on p = 1024,
        16384^3 on 16384 and 32768^3 on 65536 (S = 101,000).
        """
        if _REGISTRY.get(self.name) is not self:
            # A spec that is not (or no longer) the registered one -- built
            # standalone, unregistered, or superseded by replace=True -- must
            # plan with *its own* planner, not whatever the registry now
            # holds under its name.
            return self._plan_uncached(scenario, **options)
        try:
            return _cached_plan(self.name, scenario, tuple(sorted(options.items())))
        except TypeError:
            # Unhashable option values (e.g. a list-valued grid override)
            # bypass the cache.
            return self._plan_uncached(scenario, **options)

    def feasible_plan(self, scenario: "Scenario", **options) -> Plan:
        """:meth:`plan`, raising :class:`InfeasiblePlan` when the plan is
        infeasible: what every entry point that runs a scenario asks first."""
        run_plan = self.plan(scenario, **options)
        if not run_plan.feasible:
            raise InfeasiblePlan(run_plan)
        return run_plan

    def _plan_uncached(self, scenario: "Scenario", **options) -> Plan:
        reason = self._infeasibility(scenario)
        shape = scenario.shape
        bound = 0.0
        if scenario.p >= 1 and scenario.memory_words >= 1:
            bound = parallel_io_lower_bound(
                shape.m, shape.n, shape.k, scenario.p, scenario.memory_words
            )
        if reason is not None:
            return Plan(
                algorithm=self.name, scenario=scenario, feasible=False,
                reason=reason, lower_bound_per_rank=bound,
            )
        if self.plan_fn is not None:
            return self.plan_fn(scenario, **options)
        predicted = 0.0
        if self.io_cost is not None:
            predicted = float(self.io_cost(
                shape.m, shape.n, shape.k, scenario.p, scenario.memory_words
            ))
        return Plan(
            algorithm=self.name, scenario=scenario, feasible=True,
            processors_used=scenario.p, predicted_words_per_rank=predicted,
            lower_bound_per_rank=bound,
        )

    def cost(self, scenario: "Scenario") -> CostPrediction | None:
        """The Table 3 I/O formula and the plan's rounds, or ``None`` without
        ``io_cost``.  Memoized per ``(spec, m, n, k, p, S, rounds)``."""
        if self.io_cost is None:
            return None
        shape = scenario.shape
        rounds = self.plan(scenario).rounds
        return _cached_cost(self, shape.m, shape.n, shape.k, scenario.p, scenario.memory_words, rounds)

    def _infeasibility(self, scenario: "Scenario") -> str | None:
        """Generic hard preconditions shared by every algorithm."""
        if scenario.p < 1:
            return f"processor count must be positive, got {scenario.p}"
        if scenario.memory_words < 1:
            return f"memory_words must be positive, got {scenario.memory_words}"
        if scenario.memory_words < self.min_memory_words:
            return (
                f"{self.name} needs at least {self.min_memory_words} words of "
                f"local memory, got {scenario.memory_words}"
            )
        footprint = scenario.shape.footprint_words
        aggregate = scenario.p * scenario.memory_words
        if aggregate < footprint:
            return (
                f"aggregate memory p*S = {aggregate} words cannot hold the "
                f"matrices' footprint mn + mk + nk = {footprint} words "
                "(parallel schedules require p*S >= mn + mk + nk, section 6.3)"
            )
        return None


# ---------------------------------------------------------------------------
# The process-wide registry
# ---------------------------------------------------------------------------
#: Canonical name -> spec, in registration order (builtins register first).
_REGISTRY: dict[str, AlgorithmSpec] = {}
#: Lowercased name/alias -> canonical name.
_LOOKUP: dict[str, str] = {}


@lru_cache(maxsize=8192)
def _cached_cost(spec: AlgorithmSpec, m: int, n: int, k: int, p: int, s: int, rounds: int) -> CostPrediction:
    return CostPrediction(
        algorithm=spec.name,
        io_words_per_rank=float(spec.io_cost(m, n, k, p, s)),
        latency_rounds=float(rounds),
        flops_per_rank=2.0 * m * n * k / p,
    )


@lru_cache(maxsize=4096)
def _cached_plan(name: str, scenario: "Scenario", options_key: tuple) -> Plan:
    """Shared plan memoization, keyed on the scenario tuple (frozen dataclass)."""
    return _REGISTRY[name]._plan_uncached(scenario, **dict(options_key))


def plan_cache_clear() -> None:
    """Drop every memoized plan (called on register/unregister), and the
    grid decompositions, CARMA tables and CARMA messages memoized beneath
    them (with every array derived from them)."""
    _cached_plan.cache_clear()
    decomposition_cache_clear()
    carma_table.cache_clear()
    carma_messages.cache_clear()


def register(spec: AlgorithmSpec, replace: bool = False) -> AlgorithmSpec:
    """Add ``spec`` to the registry.

    ``replace=True`` allows re-registering the same canonical name (tests
    swap a runner this way); registering a
    name or alias that belongs to a *different* algorithm is always an error.
    """
    labels = (spec.name, *spec.aliases)
    for label in labels:
        owner = _LOOKUP.get(label.lower())
        if owner is not None and owner != spec.name:
            raise ValueError(
                f"cannot register {spec.name!r}: label {label!r} already "
                f"belongs to {owner!r}"
            )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"algorithm {spec.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[spec.name] = spec
    for label in labels:
        _LOOKUP[label.lower()] = spec.name
    plan_cache_clear()
    return spec


def register_algorithm(
    name: str,
    aliases: tuple[str, ...] = (),
    plan: PlanFn | None = None,
    io_cost: CostFn | None = None,
    min_memory_words: int = 1,
    default_comparison: bool = False,
    description: str = "",
    replace: bool = False,
) -> Callable[[RunnerFn], RunnerFn]:
    """Decorator: register ``fn(a, b, scenario, machine) -> product`` as ``name``.

    This is the extension point: a module under ``extensions/`` (or any user
    code) decorates its runner and the algorithm immediately works everywhere
    -- ``api.multiply(..., algorithm=name)``, ``repro multiply/plan/sweep`` choice
    lists, the sweep engine, and (when ``io_cost`` is given) the analytic
    columns of every campaign table.  See the README's "adding a new
    algorithm" walkthrough and :mod:`repro.extensions.allgather`.
    """

    def decorate(fn: RunnerFn) -> RunnerFn:
        register(
            AlgorithmSpec(
                name=name, runner=fn, plan_fn=plan, io_cost=io_cost, aliases=tuple(aliases),
                min_memory_words=min_memory_words,
                default_comparison=default_comparison, description=description,
            ),
            replace=replace,
        )
        return fn

    return decorate


def unregister(name: str) -> None:
    """Remove an algorithm (extensions, tests)."""
    canonical = resolve_algorithm(name)
    spec = _REGISTRY.pop(canonical)
    for label in (spec.name, *spec.aliases):
        _LOOKUP.pop(label.lower(), None)
    plan_cache_clear()


def resolve_algorithm(name: str) -> str:
    """Canonical name for ``name`` (alias- and case-insensitive), or raise."""
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise UnknownAlgorithmError(name, tuple(_REGISTRY))
    return canonical


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered :class:`AlgorithmSpec` by name or alias."""
    return _REGISTRY[resolve_algorithm(name)]


def is_registered(name: str) -> bool:
    return str(name).lower() in _LOOKUP


def registered_algorithms() -> tuple[str, ...]:
    """Canonical algorithm names, in registration order."""
    return tuple(_REGISTRY)


def algorithm_specs() -> tuple[AlgorithmSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


def algorithm_choices() -> list[str]:
    """Sorted canonical names + aliases (for CLI ``choices=`` lists)."""
    labels = {spec.name for spec in _REGISTRY.values()}
    for spec in _REGISTRY.values():
        labels.update(spec.aliases)
    return sorted(labels)


def default_algorithms() -> tuple[str, ...]:
    """The paper-figure comparison subset, in registration order."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.default_comparison)
