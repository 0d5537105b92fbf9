"""Analytic per-processor I/O costs of Table 3.

Each formula gives the *general case* row of Table 3; the two special-case
rows (square matrices with limited memory, tall matrices with extra memory)
are obtained by instantiating the same formulas and are checked against the
paper's simplified expressions in ``tests/test_baselines_costs.py`` and
``benchmarks/bench_table3_costs.py``.  COSMA's row is Theorem 2 itself
(:func:`repro.pebbling.mmm_bounds.parallel_io_lower_bound`).  The registry
attaches these formulas to the algorithms (``AlgorithmSpec.io_cost``); a
run's latency is its counted rounds (``Plan.rounds`` predicts them), not
Table 3's latency column.
"""

from __future__ import annotations

import math

from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.utils.validation import check_positive_int


# ---------------------------------------------------------------------------
# 2D decomposition (Cannon / SUMMA / ScaLAPACK)
# ---------------------------------------------------------------------------
def io_cost_2d(m: int, n: int, k: int, p: int) -> float:
    """Per-processor I/O of the 2D decomposition: ``k(m + n)/sqrt(p) + mn/p``.

    Checked claim: on square matrices it is Table 3's
    ``2n^2 (sqrt(p) + 1) / p``, leading term ``2n^2 / sqrt(p)``.
    """
    check_positive_int(p, "p")
    return float(k) * (m + n) / math.sqrt(p) + float(m) * n / p


# ---------------------------------------------------------------------------
# 2.5D decomposition (CTF); the 3D decomposition is the special case c = p^(1/3)
# ---------------------------------------------------------------------------
def replication_factor_25d(m: int, n: int, k: int, p: int, s: int) -> float:
    """The 2.5D replication factor ``c = pS / (mk + nk)``, clamped to ``[1, p^(1/3)]``.

    Checked claim: both clamps are reached.
    """
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

    Checked claims: at ``c = 1`` it is the 2D cost, at ``c = p^(1/3)`` the 3D
    cost, and extra memory makes it beat 2D.
    """
    c = replication_factor_25d(m, n, k, p, s)
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

    Checked claims: it lies between 1.2x and 2.1x Theorem 2 in the limited
    regime and within 1% of it with extra memory.
    """
    check_positive_int(p, "p")
    check_positive_int(s, "S")
    mnk = float(m) * n * k
    cubic_face = (mnk / p) ** (2.0 / 3.0)
    if s >= 3.0 * cubic_face:
        return 3.0 * cubic_face
    return 2.0 * math.sqrt(3.0) * mnk / (p * math.sqrt(s)) + cubic_face


# ---------------------------------------------------------------------------
# Historical algorithms for the Figure 2 "evolution" plot
# ---------------------------------------------------------------------------
def io_cost_naive_1d(m: int, n: int, k: int, p: int) -> float:
    """A 1D (row-striped) decomposition: every processor needs all of B.

    Checked claim: it is at least ``kn``.
    """
    check_positive_int(p, "p")
    return float(k) * n + float(m) * k / p + float(m) * n / p


def evolution_table(m: int, n: int, k: int, p: int, s: int) -> dict[str, float]:
    """Worst-case per-processor I/O of the algorithm lineage shown in Figure 2.

    Checked claim: the lineage naive -> 2D -> 2.5D -> COSMA does not increase,
    CARMA is no better than COSMA, and COSMA's entry is Theorem 2.
    """
    cosma = parallel_io_lower_bound(m, n, k, p, s)
    return {
        "naive-1D": io_cost_naive_1d(m, n, k, p),
        "Cannon-2D": io_cost_2d(m, n, k, p),
        "PUMMA/SUMMA-2D": io_cost_2d(m, n, k, p),
        "2.5D": io_cost_25d(m, n, k, p, s),
        "CARMA-recursive": io_cost_carma(m, n, k, p, s),
        "COSMA": cosma,
        "lower-bound": cosma,
    }
