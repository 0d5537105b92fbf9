"""Analytic per-processor I/O and latency costs of Table 3.

Each formula gives the *general case* row of Table 3; the two special-case
rows (square matrices with limited memory, tall matrices with extra memory)
are obtained by instantiating the same formulas and are checked against the
paper's simplified expressions in the tests and in
``benchmarks/bench_table3_costs.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.cost_model import cosma_io_cost, cosma_latency_cost
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workloads is light,
    # but costs should stay importable without the workloads package)
    from repro.workloads.scaling import Scenario


# ---------------------------------------------------------------------------
# 2D decomposition (Cannon / SUMMA / ScaLAPACK)
# ---------------------------------------------------------------------------
def io_cost_2d(m: int, n: int, k: int, p: int) -> float:
    """Per-processor I/O of the 2D decomposition: ``k(m + n)/sqrt(p) + mn/p``."""
    check_positive_int(p, "p")
    return float(k) * (m + n) / math.sqrt(p) + float(m) * n / p


def latency_cost_2d(m: int, n: int, k: int, p: int) -> float:
    """Latency of the 2D decomposition: ``2 k log2(sqrt(p))`` rounds (Table 3)."""
    check_positive_int(p, "p")
    return 2.0 * k * math.log2(max(2.0, math.sqrt(p)))


# ---------------------------------------------------------------------------
# 2.5D decomposition (CTF); the 3D decomposition is the special case c = p^(1/3)
# ---------------------------------------------------------------------------
def replication_factor_25d(m: int, n: int, k: int, p: int, s: int) -> float:
    """The 2.5D replication factor ``c = pS / (mk + nk)``, clamped to ``[1, p^(1/3)]``."""
    check_positive_int(p, "p")
    check_positive_int(s, "S")
    ideal = float(p) * s / (float(m) * k + float(n) * k)
    return min(max(1.0, ideal), float(p) ** (1.0 / 3.0))


def io_cost_25d(m: int, n: int, k: int, p: int, s: int) -> float:
    """Per-processor I/O of the 2.5D decomposition.

    With ``c`` layers each of ``p/c`` processors, a processor communicates the
    SUMMA volume of its layer's ``k/c``-deep slice plus the reduction of its
    ``C`` block across layers::

        Q = k (m + n) / sqrt(p c) + m n c / p

    Substituting ``c = pS/(k(m+n))`` recovers Table 3's
    ``(k(m+n))^{3/2} / (p sqrt(S)) + mnS/(k(m+n))``.
    """
    c = replication_factor_25d(m, n, k, p, s)
    return float(k) * (m + n) / math.sqrt(p * c) + float(m) * n * c / p


def latency_cost_25d(m: int, n: int, k: int, p: int, s: int) -> float:
    """Latency of the 2.5D decomposition (Table 3)."""
    c = replication_factor_25d(m, n, k, p, s)
    steps = max(1.0, k / c / math.sqrt(max(1.0, p / c)))
    return steps + 3.0 * math.log2(max(2.0, c))


def io_cost_3d(m: int, n: int, k: int, p: int) -> float:
    """Per-processor I/O of the 3D decomposition (``c = p^(1/3)``)."""
    c = float(p) ** (1.0 / 3.0)
    return float(k) * (m + n) / math.sqrt(p * c) + float(m) * n * c / p


# ---------------------------------------------------------------------------
# Recursive decomposition (CARMA)
# ---------------------------------------------------------------------------
def io_cost_carma(m: int, n: int, k: int, p: int, s: int) -> float:
    """Per-processor I/O of the recursive (CARMA) decomposition.

    Table 3: ``2 min{ sqrt(3) mnk / (p sqrt(S)), (mnk/p)^(2/3) } + (mnk/p)^(2/3)``.
    As with Theorem 2, the two branches correspond to the memory regimes: when
    all three faces of the cubic local domain fit in memory
    (``S >= 3 (mnk/p)^(2/3)``) the cost is ``3 (mnk/p)^(2/3)`` like COSMA's;
    otherwise the recursive schedule streams through memory-sized tiles and
    pays the ``sqrt(3)`` penalty of its cubic domains (section 6.2).
    """
    check_positive_int(p, "p")
    check_positive_int(s, "S")
    mnk = float(m) * n * k
    cubic_face = (mnk / p) ** (2.0 / 3.0)
    if s >= 3.0 * cubic_face:
        return 3.0 * cubic_face
    return 2.0 * math.sqrt(3.0) * mnk / (p * math.sqrt(s)) + cubic_face


def latency_cost_carma(m: int, n: int, k: int, p: int, s: int) -> float:
    """Latency of the recursive decomposition (Table 3)."""
    check_positive_int(p, "p")
    mnk = float(m) * n * k
    return (3.0 ** 1.5) * mnk / (p * s ** 1.5) + 3.0 * math.log2(max(2.0, p))


# ---------------------------------------------------------------------------
# COSMA (re-exported so every algorithm's cost lives in one namespace)
# ---------------------------------------------------------------------------
def io_cost_cosma(m: int, n: int, k: int, p: int, s: int) -> float:
    """Per-processor I/O of COSMA (the Theorem 2 optimum)."""
    return cosma_io_cost(m, n, k, p, s)


def latency_cost_cosma(m: int, n: int, k: int, p: int, s: int) -> float:
    """Latency of COSMA (Table 3)."""
    return cosma_latency_cost(m, n, k, p, s)


# ---------------------------------------------------------------------------
# Shared prediction entry point (used by the sweep aggregator, the CLI and the
# performance model); the registry decides which formulas a name maps onto.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CostPrediction:
    """Analytic per-processor cost of one algorithm on one scenario."""

    algorithm: str
    #: Table 3 per-processor I/O (words moved through the slowest processor).
    io_words_per_rank: float
    #: Table 3 latency cost (communication rounds on the critical path).
    latency_rounds: float
    #: Useful flops per processor under perfect load balance: ``2mnk / p``.
    flops_per_rank: float


#: Algorithm name or alias -> (io, latency) formula pair, all with the uniform
#: signature ``(m, n, k, p, s)``.  Filled by the algorithm registry: every
#: registered spec that carries ``io_cost`` lands here, the built-ins when
#: ``repro`` is imported.
_COST_MODELS: dict[str, tuple] = {}


def register_cost_model(algorithm: str, io_fn, latency_fn=None, aliases=()) -> None:
    """Register the Table-3-style formulas of an algorithm (and its aliases).

    Called by :func:`repro.algorithms.registry.register` for every spec that
    carries cost formulas, so :func:`predict` / :func:`predict_mnk` -- and
    with them the sweep aggregator, the performance model and the CLI
    ``bounds`` table -- automatically cover algorithms registered from
    outside this module.  ``latency_fn`` defaults to zero rounds when the
    algorithm has no published latency analysis.
    """
    if latency_fn is None:
        def latency_fn(m, n, k, p, s):
            return 0.0
    _COST_MODELS[algorithm] = (io_fn, latency_fn)
    for alias in aliases:
        _COST_MODELS[alias] = _COST_MODELS[algorithm]
    predict_mnk.cache_clear()


def unregister_cost_model(algorithm: str, aliases=()) -> None:
    """Retract a registered cost model (the registry's unregister hook).

    Without this, ``predict`` would keep answering for an algorithm the
    registry no longer knows -- or worse, attribute a stale model to an
    unrelated algorithm registered later under the same name.
    """
    _COST_MODELS.pop(algorithm, None)
    for alias in aliases:
        _COST_MODELS.pop(alias, None)
    predict_mnk.cache_clear()


@lru_cache(maxsize=8192)
def predict_mnk(algorithm: str, m: int, n: int, k: int, p: int, s: int) -> CostPrediction:
    """Predict the Table 3 costs of ``algorithm`` on an explicit problem.

    Memoized per parameter tuple (the prediction is a frozen value object);
    sweep aggregation calls this once per tidy row, so repeated campaigns
    over the same grid stop re-evaluating the same formulas.  The cache is
    cleared whenever a cost model is (un)registered.
    """
    if algorithm not in _COST_MODELS:
        raise KeyError(f"no cost model for {algorithm!r}; known: {sorted(_COST_MODELS)}")
    io_fn, latency_fn = _COST_MODELS[algorithm]
    return CostPrediction(
        algorithm=algorithm,
        io_words_per_rank=float(io_fn(m, n, k, p, s)),
        latency_rounds=float(latency_fn(m, n, k, p, s)),
        flops_per_rank=2.0 * m * n * k / p,
    )


def predict(algorithm: str, scenario: "Scenario") -> CostPrediction:
    """Predict the Table 3 costs of ``algorithm`` on a benchmark scenario."""
    shape = scenario.shape
    return predict_mnk(algorithm, shape.m, shape.n, shape.k, scenario.p, scenario.memory_words)


# ---------------------------------------------------------------------------
# Historical algorithms for the Figure 2 "evolution" plot
# ---------------------------------------------------------------------------
def io_cost_naive_1d(m: int, n: int, k: int, p: int) -> float:
    """A 1D (row-striped) decomposition: every processor needs all of B."""
    check_positive_int(p, "p")
    return float(k) * n + float(m) * k / p + float(m) * n / p


def evolution_table(m: int, n: int, k: int, p: int, s: int) -> dict[str, float]:
    """Worst-case per-processor I/O of the algorithm lineage shown in Figure 2."""
    return {
        "naive-1D": io_cost_naive_1d(m, n, k, p),
        "Cannon-2D": io_cost_2d(m, n, k, p),
        "PUMMA/SUMMA-2D": io_cost_2d(m, n, k, p),
        "2.5D": io_cost_25d(m, n, k, p, s),
        "CARMA-recursive": io_cost_carma(m, n, k, p, s),
        "COSMA": io_cost_cosma(m, n, k, p, s),
        "lower-bound": cosma_io_cost(m, n, k, p, s),
    }
