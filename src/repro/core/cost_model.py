"""Analytic COSMA cost model: the local domain of Equation 32 and Figure 3's
comparison.

COSMA's I/O row of Table 3 is Theorem 2 itself
(:func:`repro.pebbling.mmm_bounds.parallel_io_lower_bound`); what a run
counts is :func:`repro.core.cosma.received_words` and
:func:`repro.core.cosma.counted_rounds`.
"""

from __future__ import annotations

import math

from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.utils.validation import check_positive_int


def cosma_local_domain(m: int, n: int, k: int, p: int, s: int) -> tuple[float, float]:
    """The optimal real-valued local-domain sizes ``(a, b)`` of Equation 32."""
    check_positive_int(p, "p")
    check_positive_int(s, "S")
    mnk = float(m) * n * k
    a = min(math.sqrt(s), (mnk / p) ** (1.0 / 3.0))
    b = max(mnk / (p * s), (mnk / p) ** (1.0 / 3.0))
    return a, b


def communication_reduction_vs_grid(
    m: int, n: int, k: int, p: int, s: int, grid: tuple[int, int, int]
) -> float:
    """Ratio (other grid volume) / (COSMA volume) for a fixed cuboidal grid.

    Used for the Figure 3 experiment: a top-down ``p^(1/3)`` cubic
    decomposition, chosen without regard to the memory size, communicates more
    than COSMA's bottom-up decomposition whenever the cubic local output block
    does not fit in fast memory (the paper's illustration reports a 17%
    reduction for its example).  When the other grid's output block does not
    fit in ``S`` words, it must process its domain in memory-sized output
    tiles and re-fetch the remote input panels for each tile, which is what
    the degraded cost below charges.
    """
    pm, pn, pk = grid
    if pm * pn * pk > p:
        raise ValueError(f"grid {grid} uses more than p={p} processors")
    lm, ln, lk = m / pm, n / pn, k / pk
    if lm * ln > s:
        other_inputs = 2.0 * lm * ln * lk / math.sqrt(s)
    else:
        other_inputs = lm * lk + ln * lk
    other = other_inputs + (lm * ln if pk > 1 else 0.0)
    ours = parallel_io_lower_bound(m, n, k, p, s)
    return other / ours
