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
communication step (:func:`summa_decomposition`), and every mode says so
literally.  ``plane`` and ``volume`` runs (:func:`_summa_plane`) post their
residency and panel rounds through the accounting core of
:mod:`repro.core.cosma` and add only the round boundary and per-panel stacked
GEMMs; ``legacy`` / ``zerocopy`` runs make the same calls on the core's
per-hop twins.  Either way, what is SUMMA's own is the grid, the step, binomial
broadcasts, an unlabelled ``commit_round`` per panel, and a product read off
the accumulators with no C reduction.  Cannon makes the same calls
(:func:`run_panels`) with a ring in place of the trees.  The textbook layout
(A's k columns split over the ``pn`` ranks of a process row, B's k rows over
the ``pm`` ranks of a process column) is pinned on the decomposition's arrays
by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cosma import (
    hop_fiber_exchange,
    owner_product,
    post_fiber_exchange,
    post_owned_words,
    put_owned_blocks,
)
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken, as_operands
from repro.utils.intmath import divisors
from repro.utils.validation import check_positive_int


@dataclass
class SummaRunResult:
    """Outcome of a SUMMA run."""

    matrix: np.ndarray
    grid: tuple[int, int]
    panel_width: int
    counters: CommCounters

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()


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


def summa_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    p: int,
    machine: DistributedMachine | None = None,
    memory_words: int | None = None,
    grid: tuple[int, int] | None = None,
    panel_width: int | None = None,
) -> SummaRunResult:
    """Multiply ``A @ B`` with SUMMA on a simulated machine.

    Parameters
    ----------
    p:
        Number of processors (the grid is a factor pair of ``p``).
    grid:
        Optional explicit ``(pm, pn)`` grid.
    panel_width:
        Optional panel width ``nb``; defaults to the largest panel that fits
        next to the local C block in ``memory_words`` (or 64 when no memory
        limit is given).
    """
    p = check_positive_int(p, "p")
    a_matrix, b_matrix, (m, n, k) = as_operands(a_matrix, b_matrix, machine)
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))
    if panel_width is None and memory_words is None:
        panel_width = min(k, 64)
    decomposition = summa_decomposition(
        m, n, k, p, memory_words or machine.memory_words, grid, panel_width
    )
    pm, pn, _ = decomposition.grid
    panel_width = decomposition.step_size

    c_global = run_panels(machine, a_matrix, b_matrix, decomposition, "tree")
    return SummaRunResult(
        matrix=c_global, grid=(pm, pn), panel_width=panel_width, counters=machine.counters
    )


def run_panels(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
    exchange: str,
) -> np.ndarray:
    """Run a one-layer decomposition's panel rounds with the given ``exchange``
    kind (SUMMA's ``"tree"``, Cannon's ``"ring"``); returns the global product.

    ``plane`` and ``volume`` runs take :func:`_summa_plane`; ``legacy`` /
    ``zerocopy`` runs make the same calls on the core's per-hop twins.
    """
    if machine.transport.planar or machine.transport.counters_only:
        return _summa_plane(machine, a_matrix, b_matrix, decomposition, exchange)
    put_owned_blocks(machine, decomposition, a_matrix, b_matrix, "A", "B", "C")
    hop_fiber_exchange(
        machine, decomposition, exchange, "A", "B", "C", lambda _: machine.commit_round())
    return owner_product(machine, decomposition, "C")


class BlockStacks:
    """Plane-mode storage and numerics of a 2D / 2.5D grid run.

    Every rank's local A / B / C blocks live in three zero-padded
    ``(p_used, rows, cols)`` planes (slot = rank id, row-major in
    ``(i, j, layer)``), so a grid row, a grid column or a layer is a
    *strided* slot slice -- on a single layer ``A[j::pn]`` is exactly grid
    column ``j`` -- and one step's ``pm x pn`` block products are a single
    broadcasting ``np.matmul``.
    """

    def __init__(
        self,
        machine: DistributedMachine,
        name: str,
        decomposition: CosmaDecomposition,
        a_matrix: np.ndarray,
        b_matrix: np.ndarray,
    ) -> None:
        self.decomposition = decomposition
        pm, pn, pk = decomposition.grid
        i_bounds, j_bounds = decomposition.i_bounds, decomposition.j_bounds
        a_bounds, b_bounds = decomposition.a_bounds, decomposition.b_bounds
        lm_max, ln_max = int(i_bounds[1]), int(j_bounds[1])
        slots = pm * pn * pk
        self.a = machine.new_plane(
            f"{name}.A", (slots, lm_max, max(1, int(np.diff(a_bounds).max())))).data
        self.b = machine.new_plane(
            f"{name}.B", (slots, max(1, int(np.diff(b_bounds).max())), ln_max)).data
        self.c = machine.new_plane(f"{name}.C", (slots, lm_max, ln_max)).data
        for layer in range(pk):
            for i in range(pm):
                i0, i1 = i_bounds[i : i + 2]
                bk0, bk1 = b_bounds[layer, i : i + 2]
                for j in range(pn):
                    j0, j1 = j_bounds[j : j + 2]
                    ak0, ak1 = a_bounds[layer, j : j + 2]
                    slot = (i * pn + j) * pk + layer
                    self.a[slot, : i1 - i0, : ak1 - ak0] = a_matrix[i0:i1, ak0:ak1]
                    self.b[slot, : bk1 - bk0, : j1 - j0] = b_matrix[bk0:bk1, j0:j1]

    def multiply(self, layer: int, start: int, stop: int) -> None:
        """``C += A[:, start:stop] @ B[start:stop, :]`` on every rank of ``layer``:
        strided panel assembly from the owners' slices + one batched GEMM."""
        pm, pn, pk = self.decomposition.grid
        lm_max, ln_max = self.c.shape[1:]
        ak = self.decomposition.a_bounds[layer]
        bk = self.decomposition.b_bounds[layer]
        a_panels = np.zeros((pm, lm_max, stop - start), dtype=self.c.dtype)
        for j in range(pn):
            lo, hi = max(int(ak[j]), start), min(int(ak[j + 1]), stop)
            if lo < hi:
                a_panels[:, :, lo - start : hi - start] = (
                    self.a[j * pk + layer :: pn * pk, :, lo - ak[j] : hi - ak[j]]
                )
        b_panels = np.zeros((pn, stop - start, ln_max), dtype=self.c.dtype)
        for i in range(pm):
            lo, hi = max(int(bk[i]), start), min(int(bk[i + 1]), stop)
            if lo < hi:
                b_panels[:, lo - start : hi - start, :] = self.b[
                    i * pn * pk + layer : (i + 1) * pn * pk + layer : pk,
                    lo - bk[i] : hi - bk[i], :,
                ]
        layer_c = self.c[layer::pk]
        layer_c += np.matmul(a_panels[:, None], b_panels[None, :]).reshape(
            pm * pn, lm_max, ln_max
        )

    def product(self) -> np.ndarray:
        """The global product: one ``np.add.reduce`` over each ``(i, j)`` fiber's
        contiguous slot run (its layers), then the blocks at their offsets."""
        decomposition = self.decomposition
        pm, pn, pk = decomposition.grid
        i_bounds, j_bounds = decomposition.i_bounds, decomposition.j_bounds
        totals = np.add.reduce(self.c.reshape(pm * pn, pk, *self.c.shape[1:]), axis=1)
        c_global = np.zeros((decomposition.m, decomposition.n), dtype=self.c.dtype)
        for i in range(pm):
            i0, i1 = i_bounds[i : i + 2]
            for j in range(pn):
                j0, j1 = j_bounds[j : j + 2]
                c_global[i0:i1, j0:j1] = totals[i * pn + j, : i1 - i0, : j1 - j0]
        return c_global


def _summa_plane(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
    exchange: str,
) -> np.ndarray:
    """SUMMA on the stacked-array engine; returns the global product.

    SUMMA's own part of a run (see the module docstring) is the round
    boundary -- an unlabelled ``commit_round`` per panel -- and, after the
    accounting, one stacked GEMM per panel.  In ``volume`` mode the numerics
    are skipped: no plane is allocated and a token is returned as the product.
    """
    k, panel_width = decomposition.k, decomposition.step_size
    numeric = not machine.transport.counters_only
    if numeric:
        stacks = BlockStacks(machine, "summa", decomposition, a_matrix, b_matrix)
    post_owned_words(machine, decomposition, "A", "B", "C")
    # The reference path checks memory once per panel; the stores never
    # change between panels, so one check records the identical peak.
    machine.check_memory()
    post_fiber_exchange(machine, decomposition, exchange, lambda _: machine.commit_round())
    if not numeric:
        return ShapeToken((decomposition.m, decomposition.n))
    for start in range(0, k, panel_width):
        stacks.multiply(0, start, min(start + panel_width, k))
    return stacks.product()
