"""SUMMA (van de Geijn & Watts, 1997): the 2D algorithm used by ScaLAPACK.

Processors form a ``pm x pn`` grid; A and C are distributed in ``lm x .``
block rows, B and C in ``. x ln`` block columns.  The ``k`` dimension is
processed in panels of width ``nb``: in each panel step the owning column of
the grid broadcasts its ``lm x nb`` panel of A along its process row, the
owning row broadcasts its ``nb x ln`` panel of B along its process column, and
every rank performs a rank-``nb`` update of its local C block.

This serves as the library's ScaLAPACK stand-in: like ``PDGEMM`` it never uses
more memory than a 2D decomposition needs, so it is communication-inefficient
whenever extra memory is available (the paper's motivating observation).

That makes SUMMA a grid choice, not a schedule of its own: it is COSMA's
fiber exchange on the grid ``pm x pn x 1`` with the panel width as the
communication step (:func:`summa_decomposition`), and the engine says so
literally (:func:`run_panels`): it posts its residency and panel rounds
through the accounting core of :mod:`repro.core.cosma` and its product is
COSMA's numerics, :func:`~repro.core.cosma.layer_product` (one GEMM box over
the k-range the owners' slices hold, on its single layer).  What is SUMMA's own is the grid,
the step, binomial broadcasts and no C reduction.  Cannon makes the same
call with a ring in place of the trees.  The textbook layout
(A's k columns split over the ``pn`` ranks of a process row, B's k rows over
the ``pm`` ranks of a process column) is pinned on the decomposition's arrays
by the tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cosma import layer_product, post_fiber_exchange, post_owned_words
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, ShapeToken
from repro.utils.intmath import divisors
from repro.utils.validation import check_positive_int


def choose_2d_grid(m: int, n: int, p: int) -> tuple[int, int]:
    """Choose a ``pm x pn`` grid with ``pm * pn = p`` matching the C aspect ratio.

    ScaLAPACK users typically pick a near-square grid; we pick the factor pair
    whose aspect ratio is closest to ``m / n`` (the best a tuned user could
    do), which is slightly favourable to the baseline.
    """
    check_positive_int(p, "p")
    target = m / n
    best = (1, 1)
    best_error = math.inf
    for pm in divisors(p):
        pn = p // pm
        if pm > m or pn > n:
            continue
        error = abs(math.log((pm / pn) / target))
        if error < best_error:
            best_error = error
            best = (pm, pn)
    return best


def summa_decomposition(
    m: int, n: int, k: int, p: int, memory_words: int,
    grid: tuple[int, int] | None = None, panel_width: int | None = None,
) -> CosmaDecomposition:
    """SUMMA's schedule as a decomposition: the 2D grid on a single k-layer,
    the panel width as the communication step.

    Without an explicit ``panel_width`` the step is the decomposition's own
    rule: the widest panel that fits next to the local C block in
    ``memory_words``.  A plan and the run it predicts both come here.
    """
    pm, pn = grid if grid is not None else choose_2d_grid(m, n, p)
    return build_decomposition(
        m, n, k, p, memory_words, grid=ProcessorGrid(pm, pn, 1), step_size=panel_width
    )


def run_panels(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
    exchange: str,
) -> GemmProduct | ShapeToken:
    """Run a one-layer decomposition's panel rounds with the given ``exchange``
    kind (SUMMA's ``"tree"``, Cannon's ``"ring"``); returns the global
    product, the operands' ``m x n``.  This is ScaLAPACK's engine, on
    :func:`summa_decomposition`, and Cannon's after its skew
    (:func:`repro.baselines.cannon.cannon_run`).

    The panels are an accounting matter only (see the module docstring):
    the product is :func:`layer_product`'s GEMM box.  In ``volume`` mode the
    numerics are skipped: no box is built and a token is returned as the
    product.
    """
    post_owned_words(machine, decomposition, "A", "B", "C")
    # The schedule checks memory once per panel; the resident blocks never
    # change between panels, so one check records the identical peak.
    machine.check_memory()
    post_fiber_exchange(machine, decomposition, exchange)
    return layer_product(machine, decomposition, a_matrix, b_matrix)
