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
(:func:`grid25d_decomposition`).  ``plane`` and ``volume`` runs say so
literally -- :func:`_grid25d_plane` posts its residency, its gather round and
its C reduction through the accounting core of :mod:`repro.core.cosma` and
adds only its per-layer stacked GEMMs.  The per-rank loop in
:func:`grid25d_multiply` (``legacy`` / ``zerocopy`` only) is written
independently of that core and is the parity suites' oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.summa import BlockStacks
from repro.core.cosma import post_c_reduction, post_fiber_exchange, post_owned_words
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.collectives import reduce
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import (
    ShapeToken,
    as_payload,
    ascontiguous,
    concat_payloads,
)
from repro.utils.intmath import ceil_div, divisors, split_offsets
from repro.utils.validation import check_positive_int


@dataclass
class Grid25DRunResult:
    """Outcome of a 2.5D run."""

    matrix: np.ndarray
    grid: tuple[int, int, int]
    counters: CommCounters

    @property
    def replication_factor(self) -> int:
        return self.grid[2]

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()


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


def grid25d_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    p: int,
    memory_words: int,
    machine: DistributedMachine | None = None,
    grid: tuple[int, int, int] | None = None,
) -> Grid25DRunResult:
    """Multiply ``A @ B`` with the 2.5D algorithm on a simulated machine.

    Parameters
    ----------
    p:
        Available processors.
    memory_words:
        Local memory per processor; determines the replication factor ``c``.
    grid:
        Optional explicit ``(q, q, c)`` grid override.
    """
    p = check_positive_int(p, "p")
    # Operands at the machine's plane dtype, as in cosma_multiply.
    plane_dtype = None if machine is None else machine.transport.dtype
    a_matrix = as_payload(a_matrix, dtype=plane_dtype)
    b_matrix = as_payload(b_matrix, dtype=plane_dtype)
    m, k = a_matrix.shape
    k2, n = b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")
    decomposition = grid25d_decomposition(m, n, k, p, memory_words, grid)
    qm, qn, c = decomposition.grid
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words)

    if machine.transport.planar or machine.transport.counters_only:
        c_global = _grid25d_plane(machine, a_matrix, b_matrix, decomposition)
        return Grid25DRunResult(matrix=c_global, grid=(qm, qn, c), counters=machine.counters)

    def rank_of(i: int, j: int, layer: int) -> int:
        return (i * qn + j) * c + layer

    i_ranges = split_offsets(m, qm)
    j_ranges = split_offsets(n, qn)
    layer_k_ranges = split_offsets(k, c)

    # Initial distribution: layer l owns the k-slice l of A and B, 2D-distributed
    # within the layer (A by [i-block, k-sub-slice], B by [k-sub-slice, j-block]).
    local_a: dict[int, np.ndarray] = {}
    local_b: dict[int, np.ndarray] = {}
    local_c: dict[int, np.ndarray] = {}
    layer_a_slices: list[list[tuple[int, int]]] = []
    layer_b_slices: list[list[tuple[int, int]]] = []
    for layer in range(c):
        lk0, lk1 = layer_k_ranges[layer]
        a_slices = [(lk0 + lo, lk0 + hi) for lo, hi in split_offsets(lk1 - lk0, qn)]
        b_slices = [(lk0 + lo, lk0 + hi) for lo, hi in split_offsets(lk1 - lk0, qm)]
        layer_a_slices.append(a_slices)
        layer_b_slices.append(b_slices)
        for i in range(qm):
            for j in range(qn):
                r = rank_of(i, j, layer)
                i0, i1 = i_ranges[i]
                j0, j1 = j_ranges[j]
                ak0, ak1 = a_slices[j]
                bk0, bk1 = b_slices[i]
                local_a[r] = ascontiguous(a_matrix[i0:i1, ak0:ak1])
                local_b[r] = ascontiguous(b_matrix[bk0:bk1, j0:j1])
                local_c[r] = machine.zeros((i1 - i0, j1 - j0))
                machine.rank(r).put("A", local_a[r])
                machine.rank(r).put("B", local_b[r])
                machine.rank(r).put("C", local_c[r])

    # Within each layer: every rank gathers its full A row panel (from its
    # process row) and full B column panel (from its process column) for the
    # layer's k slice, then multiplies.  The panel exchange volume matches a
    # SUMMA sweep over the slice.
    for layer in range(c):
        lk0, lk1 = layer_k_ranges[layer]
        a_slices = layer_a_slices[layer]
        b_slices = layer_b_slices[layer]
        for i in range(qm):
            for j in range(qn):
                r = rank_of(i, j, layer)
                i0, i1 = i_ranges[i]
                j0, j1 = j_ranges[j]
                a_owners = [rank_of(i, jj, layer) for jj in range(qn)]
                b_owners = [rank_of(ii, j, layer) for ii in range(qm)]
                # Gather the A panel A[i-block, layer k-slice] from the
                # process row and the B panel B[layer k-slice, j-block]
                # from the process column; an owner whose k-slice is empty
                # (the layer is narrower than the grid side) sends nothing.
                a_parts = [
                    local_a[o] if o == r or not local_a[o].shape[1]
                    else machine.send(o, r, local_a[o], kind="input")
                    for o in a_owners
                ]
                b_parts = [
                    local_b[o] if o == r or not local_b[o].shape[0]
                    else machine.send(o, r, local_b[o], kind="input")
                    for o in b_owners
                ]
                a_panel = concat_payloads(a_parts, axis=1)
                b_panel = concat_payloads(b_parts, axis=0)
                machine.local_multiply(r, a_panel, b_panel, accumulate_into=local_c[r])
        machine.check_memory()

    # Reduce the per-layer partial C blocks across layers onto layer 0.
    c_global = machine.zeros((m, n))
    for i in range(qm):
        for j in range(qn):
            fiber = [rank_of(i, j, layer) for layer in range(c)]
            owner = rank_of(i, j, 0)
            blocks = {r: local_c[r] for r in fiber}
            total = reduce(machine, owner, fiber, blocks, kind="output") if c > 1 else blocks[owner]
            i0, i1 = i_ranges[i]
            j0, j1 = j_ranges[j]
            c_global[i0:i1, j0:j1] = total
            machine.rank(owner).put("C_final", total)

    return Grid25DRunResult(matrix=c_global, grid=(qm, qn, c), counters=machine.counters)


def _grid25d_plane(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
) -> np.ndarray:
    """2.5D on the stacked-array engine; returns the global product.

    2.5D's own part of a run (see the module docstring) is that its one
    gather round (all layers at once, a single round class) marks no round
    boundary, that memory is checked before the reduced blocks land, and one
    stacked GEMM per layer over the layer's whole k-slice.  In ``volume``
    mode only the accounting runs: no plane is allocated and a token is
    returned as the product.
    """
    post_owned_words(machine, decomposition, "A", "B", "C")
    # Stores are layer-invariant; one check records the reference path's peak.
    machine.check_memory()
    post_fiber_exchange(machine, decomposition, "gather")
    post_c_reduction(machine, decomposition)
    if machine.transport.counters_only:
        return ShapeToken((decomposition.m, decomposition.n))
    stacks = BlockStacks(machine, "grid25d", decomposition, a_matrix, b_matrix)
    k_bounds = decomposition.k_bounds.tolist()
    for layer in range(decomposition.grid.pk):
        stacks.multiply(layer, k_bounds[layer], k_bounds[layer + 1])
    return stacks.product()
