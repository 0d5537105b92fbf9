"""MMM I/O lower bounds and achievable costs (Theorems 1 and 2).

All functions are closed-form formulas in the matrix dimensions ``m, n, k``,
the fast-memory size ``S`` and (for the parallel case) the processor count
``p``.  The sequential side is one chain: :func:`schedule_io` is the exact
I/O of the Listing 1 schedule, :func:`sequential_io_lower_bound` is
Theorem 1, and :func:`sequential_optimality_ratio` is the factor between the
two that the tests check.  The prior-work bounds are kept for the claim that
Theorems 1 and 2 are tighter than them.
"""

from __future__ import annotations

import math

from repro.utils.intmath import ceil_div
from repro.utils.validation import check_positive_int


def sequential_io_lower_bound(m: int, n: int, k: int, s: int) -> float:
    """Theorem 1: any MMM pebbling performs at least ``2mnk / sqrt(S) + mn`` I/O operations."""
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    s = check_positive_int(s, "S")
    return 2.0 * m * n * k / math.sqrt(s) + m * n


def hong_kung_asymptotic_bound(m: int, n: int, k: int, s: int) -> float:
    """Hong & Kung's asymptotic bound ``mnk / sqrt(S)`` (prior work, constant 1).

    Checked claim: Theorem 1 is tighter than this bound.
    """
    return float(m) * n * k / math.sqrt(s)


def smith_vandegeijn_bound(m: int, n: int, k: int, s: int) -> float:
    """Smith & van de Geijn's sequential bound ``2mnk / sqrt(S) - 2S`` (prior work).

    Checked claim: Theorem 1's additive ``+mn`` makes it tighter than this bound.
    """
    return 2.0 * m * n * k / math.sqrt(s) - 2.0 * s


def schedule_io(m: int, n: int, k: int, a: int, b: int) -> int:
    """Exact loads + stores of the Listing 1 schedule with ``a x b`` tiles of C.

    Every tile loads its A column and its B row once per ``t``, and every
    output is stored once: ``Q = k (m ceil(n/b) + n ceil(m/a)) + mn``, with the
    tiles clipped to the matrix (``a <= m``, ``b <= n``).  The pebble game and
    the kernel of :mod:`repro.sequential` count exactly this.
    """
    a = min(check_positive_int(a, "a"), m)
    b = min(check_positive_int(b, "b"), n)
    return k * (m * ceil_div(n, b) + n * ceil_div(m, a)) + m * n


def sequential_optimality_ratio(s: int) -> float:
    """Upper factor ``sqrt(S) / (sqrt(S) - 1)`` of the schedule's I/O over Theorem 1.

    It holds for the optimal tiles of
    :func:`~repro.pebbling.mmm_schedule.optimal_tile_sizes` when they divide
    ``m`` and ``n`` and ``S >= 8`` (``S = 7`` is the one exception).  The paper's
    ``sqrt(S) / (sqrt(S+1) - 1)`` assumes real-valued tiles; integer tiles that
    fit the moves' ``ab + a + 2`` red pebbles reach this slightly larger factor.
    """
    s = check_positive_int(s, "S")
    if s < 2:
        raise ValueError(f"S={s} leaves no factor to state (need S >= 2)")
    root = math.sqrt(s)
    return root / (root - 1.0)


def parallel_io_lower_bound(m: int, n: int, k: int, p: int, s: int) -> float:
    """Theorem 2: per-processor I/O of parallel MMM.

    ``Q >= min{ 2mnk / (p sqrt(S)) + S,  3 (mnk / p)^(2/3) }``

    The two branches correspond to the two memory regimes of section 6.3: the
    first applies when memory is scarce (``p <= mnk / S^(3/2)``, the optimal
    local domain is a ``sqrt(S) x sqrt(S) x b`` slab and the I/O constraint
    ``a^2 <= S`` binds); the second when there is enough memory for a cubic
    ``(mnk/p)^(1/3)`` local domain.  We evaluate the branch of the regime the
    parameters fall into -- this is the quantity COSMA's optimal schedule
    attains (Equation 33) and the one Table 3's special cases instantiate.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    s = check_positive_int(s, "S")
    mnk = float(m) * n * k
    if p <= mnk / (s ** 1.5):
        # Limited-memory regime: tall-slab local domains.
        return 2.0 * mnk / (p * math.sqrt(s)) + s
    # Extra-memory regime: cubic local domains.
    return 3.0 * (mnk / p) ** (2.0 / 3.0)


def irony_toledo_tiskin_bound(m: int, n: int, k: int, p: int, s: int) -> float:
    """Irony et al.'s parallel bound ``mnk / (2 sqrt(2) p sqrt(S)) - S`` (prior work).

    Checked claim: Theorem 2 is tighter than this bound.
    """
    return float(m) * n * k / (2.0 * math.sqrt(2.0) * p * math.sqrt(s)) - s
