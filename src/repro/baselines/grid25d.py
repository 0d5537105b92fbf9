"""The 2.5D decomposition (Solomonik & Demmel, 2011) -- the CTF stand-in.

The processor grid is ``[q x q x c]`` with ``q = sqrt(p / c)``; the
replication factor ``c`` grows with the available extra memory
(``c = pS / (mk + nk)``, clamped to ``[1, p^(1/3)]``).  Layer ``l`` of the
grid computes the contribution of its own ``k/c`` slice of the inner
dimension using a 2D (SUMMA-style) algorithm, and the per-layer partial
results of C are finally reduced across the ``c`` layers.

When no memory-matching ``c`` divides ``p`` into a square layer, the
implementation falls back to smaller ``c`` (ultimately ``c = 1``, plain 2D),
mirroring how CTF's decompositions can end up far from optimal for awkward
processor counts -- one of the effects the paper's evaluation highlights.

Like SUMMA, 2.5D is a grid choice rather than a schedule of its own: it is
COSMA's fiber exchange on ``[q x q x c]`` with the whole layer as the one
communication step and direct sends in place of the broadcast tree
(:func:`grid25d_decomposition`), and the engine says so literally
(:func:`grid25d_run`): it posts its residency, gather round and C reduction
through the accounting core of :mod:`repro.core.cosma`, and its product is
COSMA's numerics, :func:`~repro.core.cosma.layer_product` (a GEMM box per
layer over the k-range the layer's owners hold, layers whose ranges abut
merged into one).  What is 2.5D's own is the grid, the whole-layer step, direct
sends and no memory check after the reduction.  The textbook layout
(layer ``l`` owns the ``l``-th k-slice, split over the ``q`` ranks of a row
for A and of a column for B) is pinned on the decomposition's arrays by the
tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cosma import (
    layer_product, post_c_reduction, post_fiber_exchange, post_owned_words,
)
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, ShapeToken
from repro.utils.intmath import ceil_div, divisors
from repro.utils.validation import check_positive_int


def choose_25d_grid(m: int, n: int, k: int, p: int, memory_words: int) -> tuple[int, int, int]:
    """Pick the ``[q, q, c]`` grid: ``c`` as close as possible to the memory-ideal value.

    Only configurations where ``p / c`` is a perfect square are usable by the
    classic formulation; among those we pick the ``c`` closest to
    ``min(pS/(mk+nk), p^(1/3))`` (and at most ``k``).
    """
    check_positive_int(p, "p")
    check_positive_int(memory_words, "memory_words")
    ideal = float(p) * memory_words / (float(m) * k + float(n) * k)
    ideal = min(max(1.0, ideal), float(p) ** (1.0 / 3.0), float(k))
    best: tuple[int, int, int] | None = None
    best_error = math.inf
    for c in divisors(p):
        if c > k:
            continue
        layer = p // c
        q = int(math.isqrt(layer))
        if q * q != layer or q > min(m, n):
            continue
        error = abs(math.log(c / ideal)) if ideal > 0 else float(c)
        if error < best_error:
            best_error = error
            best = (q, q, c)
    if best is None:
        # No square layer exists at all; use the largest square that fits and
        # leave the remaining ranks idle (c = 1).
        q = int(math.isqrt(p))
        best = (max(1, q), max(1, q), 1)
    return best


def grid25d_decomposition(
    m: int, n: int, k: int, p: int, memory_words: int, grid: tuple[int, int, int] | None = None
) -> CosmaDecomposition:
    """2.5D's schedule as a decomposition: the ``[q, q, c]`` grid with each
    layer's whole k-slice as the single communication step.

    A plan and the run it predicts both come here.
    """
    if grid is None:
        grid = choose_25d_grid(m, n, k, p, memory_words)
    return build_decomposition(
        m, n, k, p, memory_words, grid=ProcessorGrid(*grid), step_size=ceil_div(k, grid[2])
    )


def grid25d_run(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
) -> GemmProduct | ShapeToken:
    """2.5D's engine on :func:`grid25d_decomposition`; returns the global
    product.

    2.5D's own part of a run (see the module docstring) is its one gather
    round (all layers at once, a single round class), and that memory is
    checked before the reduced blocks land.
    The product is :func:`layer_product`'s GEMM boxes (the per-layer partial
    blocks and their reduction collapse into them).  In ``volume`` mode only
    the accounting runs: no box is built and a token is returned as the
    product.
    """
    post_owned_words(machine, decomposition, "A", "B", "C")
    # Resident blocks are layer-invariant; one check records the schedule's peak.
    machine.check_memory()
    post_fiber_exchange(machine, decomposition, "gather")
    post_c_reduction(machine, decomposition)
    return layer_product(machine, decomposition, a_matrix, b_matrix)
