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

``plane`` and ``volume`` runs take the stacked-array engine
(:func:`_summa_plane`; ``volume`` is that engine minus the numerics); the
per-rank loop in :func:`summa_multiply` serves ``legacy`` / ``zerocopy`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import broadcast, broadcast_hops
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import (
    ShapeToken,
    as_payload,
    ascontiguous,
    concat_payloads,
)
from repro.utils.intmath import divisors, split_offsets
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
    # Operands at the machine's plane dtype, as in cosma_multiply.
    plane_dtype = None if machine is None else machine.transport.dtype
    a_matrix = as_payload(a_matrix, dtype=plane_dtype)
    b_matrix = as_payload(b_matrix, dtype=plane_dtype)
    m, k = a_matrix.shape
    k2, n = b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")
    if grid is None:
        grid = choose_2d_grid(m, n, p)
    pm, pn = grid
    if pm * pn > p:
        raise ValueError(f"grid {grid} needs {pm * pn} ranks but only {p} are available")
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))

    i_ranges = split_offsets(m, pm)
    j_ranges = split_offsets(n, pn)
    lm = max(hi - lo for lo, hi in i_ranges)
    ln = max(hi - lo for lo, hi in j_ranges)
    if panel_width is None:
        if memory_words is not None:
            free = memory_words - lm * ln
            panel_width = max(1, min(k, free // max(1, lm + ln)))
        else:
            panel_width = min(k, 64)
    panel_width = check_positive_int(panel_width, "panel_width")

    def rank_of(i: int, j: int) -> int:
        return i * pn + j

    # Initial distribution: rank (i, j) owns A[i-block, j-th k slice] and
    # B[i-th k slice, j-block]; C[i-block, j-block] accumulates locally.
    k_col_slices = split_offsets(k, pn)
    k_row_slices = split_offsets(k, pm)

    if machine.transport.planar or machine.transport.counters_only:
        c_global = _summa_plane(
            machine, a_matrix, b_matrix, pm, pn, panel_width,
            i_ranges, j_ranges, k_col_slices, k_row_slices,
        )
        return SummaRunResult(
            matrix=c_global, grid=(pm, pn), panel_width=panel_width,
            counters=machine.counters,
        )
    local_a: dict[int, np.ndarray] = {}
    local_b: dict[int, np.ndarray] = {}
    local_c: dict[int, np.ndarray] = {}
    for i in range(pm):
        for j in range(pn):
            r = rank_of(i, j)
            i0, i1 = i_ranges[i]
            j0, j1 = j_ranges[j]
            ak0, ak1 = k_col_slices[j]
            bk0, bk1 = k_row_slices[i]
            local_a[r] = ascontiguous(a_matrix[i0:i1, ak0:ak1])
            local_b[r] = ascontiguous(b_matrix[bk0:bk1, j0:j1])
            local_c[r] = machine.zeros((i1 - i0, j1 - j0))
            machine.rank(r).put("A", local_a[r])
            machine.rank(r).put("B", local_b[r])
            machine.rank(r).put("C", local_c[r])

    # Panel loop over k.
    for panel_start in range(0, k, panel_width):
        panel_stop = min(panel_start + panel_width, k)
        # Broadcast this panel's A pieces along every process row.
        a_panel_by_row: list[np.ndarray] = []
        for i in range(pm):
            i0, i1 = i_ranges[i]
            row_ranks = [rank_of(i, j) for j in range(pn)]
            parts: list[np.ndarray] = []
            for j in range(pn):
                ak0, ak1 = k_col_slices[j]
                lo, hi = max(ak0, panel_start), min(ak1, panel_stop)
                if lo >= hi:
                    continue
                owner = rank_of(i, j)
                piece = local_a[owner][:, lo - ak0 : hi - ak0]
                received = broadcast(machine, owner, row_ranks, piece, kind="input")
                parts.append(received[owner])
            panel = concat_payloads(parts, axis=1) if parts else machine.zeros((i1 - i0, 0))
            a_panel_by_row.append(panel)

        # Broadcast this panel's B pieces along every process column.
        b_panel_by_col: list[np.ndarray] = []
        for j in range(pn):
            j0, j1 = j_ranges[j]
            col_ranks = [rank_of(i, j) for i in range(pm)]
            parts = []
            for i in range(pm):
                bk0, bk1 = k_row_slices[i]
                lo, hi = max(bk0, panel_start), min(bk1, panel_stop)
                if lo >= hi:
                    continue
                owner = rank_of(i, j)
                piece = local_b[owner][lo - bk0 : hi - bk0, :]
                received = broadcast(machine, owner, col_ranks, piece, kind="input")
                parts.append(received[owner])
            panel = concat_payloads(parts, axis=0) if parts else machine.zeros((0, j1 - j0))
            b_panel_by_col.append(panel)

        # Local rank-nb updates.
        for i in range(pm):
            for j in range(pn):
                r = rank_of(i, j)
                a_panel = a_panel_by_row[i]
                b_panel = b_panel_by_col[j]
                if a_panel.shape[1] and b_panel.shape[0]:
                    machine.local_multiply(r, a_panel, b_panel, accumulate_into=local_c[r])
        machine.check_memory()
        machine.commit_round()

    # Assemble the result for verification.
    c_global = machine.zeros((m, n))
    for i in range(pm):
        for j in range(pn):
            i0, i1 = i_ranges[i]
            j0, j1 = j_ranges[j]
            c_global[i0:i1, j0:j1] = local_c[rank_of(i, j)]
    return SummaRunResult(
        matrix=c_global, grid=(pm, pn), panel_width=panel_width, counters=machine.counters
    )


def _summa_plane(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    pm: int,
    pn: int,
    panel_width: int,
    i_ranges: list[tuple[int, int]],
    j_ranges: list[tuple[int, int]],
    k_col_slices: list[tuple[int, int]],
    k_row_slices: list[tuple[int, int]],
) -> np.ndarray:
    """SUMMA on the stacked-array engine; returns the global product.

    The grid's local A / B / C blocks live in three zero-padded
    ``(pm*pn, rows, cols)`` stacks.  Each panel step gathers the A row
    panels and B column panels with *strided* slot slices (``A[j::pn]`` is
    exactly grid column ``j``), multiplies all ``pm x pn`` blocks with one
    broadcasting ``np.matmul`` and posts the panel broadcasts' counters as
    one batched update -- byte-identical to the per-hop reference path.

    In ``volume`` mode (counters-only transport) the same loop runs without
    the numerics: no plane is allocated and a token is returned as the
    product.  Either way the ranks' ``A`` / ``B`` / ``C`` words are posted to
    the machine's resident-words vector, not stored.
    """
    m = i_ranges[-1][1]
    n = j_ranges[-1][1]
    k = k_col_slices[-1][1]
    numeric = not machine.transport.counters_only
    dtype = machine.transport.dtype
    lm = np.array([hi - lo for lo, hi in i_ranges], dtype=np.int64)
    ln = np.array([hi - lo for lo, hi in j_ranges], dtype=np.int64)
    akw = np.array([hi - lo for lo, hi in k_col_slices], dtype=np.int64)
    bkw = np.array([hi - lo for lo, hi in k_row_slices], dtype=np.int64)
    lm_max, ln_max = int(lm.max()), int(ln.max())

    if numeric:
        a_plane = machine.new_plane("summa.A", (pm * pn, lm_max, max(1, int(akw.max()))))
        b_plane = machine.new_plane("summa.B", (pm * pn, max(1, int(bkw.max())), ln_max))
        c_plane = machine.new_plane("summa.C", (pm * pn, lm_max, ln_max))
        for i in range(pm):
            i0, i1 = i_ranges[i]
            bk0, bk1 = k_row_slices[i]
            for j in range(pn):
                j0, j1 = j_ranges[j]
                ak0, ak1 = k_col_slices[j]
                slot = i * pn + j
                a_plane.data[slot, : i1 - i0, : ak1 - ak0] = a_matrix[i0:i1, ak0:ak1]
                b_plane.data[slot, : bk1 - bk0, : j1 - j0] = b_matrix[bk0:bk1, j0:j1]
    # Rank (i, j) = i * pn + j holds its true-shape A, B and C blocks.
    grid_ranks = slice(0, pm * pn)
    mn_outer = np.multiply.outer(lm, ln).ravel()
    machine.post_resident("A", grid_ranks, np.multiply.outer(lm, akw).ravel())
    machine.post_resident("B", grid_ranks, np.multiply.outer(bkw, ln).ravel())
    machine.post_resident("C", grid_ranks, mn_outer)
    # The reference path checks memory once per panel; the stores never
    # change between panels, so one check records the identical peak.
    machine.check_memory()

    # Round-invariant broadcast hop arrays (see the COSMA batched engine).
    if pn > 1:
        hops = broadcast_hops(pn)
        s_pos = np.array([s for s, _ in hops], dtype=np.int64)
        d_pos = np.array([d for _, d in hops], dtype=np.int64)
        pj_src = (np.arange(pn)[:, None] + s_pos[None, :]) % pn  # (owner, hop)
        pj_dst = (np.arange(pn)[:, None] + d_pos[None, :]) % pn
        row_srcs = np.arange(pm)[:, None, None] * pn + pj_src[None]  # (i, owner, hop)
        row_dsts = np.arange(pm)[:, None, None] * pn + pj_dst[None]
    if pm > 1:
        hops = broadcast_hops(pm)
        s_pos = np.array([s for s, _ in hops], dtype=np.int64)
        d_pos = np.array([d for _, d in hops], dtype=np.int64)
        pi_src = (np.arange(pm)[:, None] + s_pos[None, :]) % pm
        pi_dst = (np.arange(pm)[:, None] + d_pos[None, :]) % pm
        col_srcs = pi_src[None] * pn + np.arange(pn)[:, None, None]  # (j, owner, hop)
        col_dsts = pi_dst[None] * pn + np.arange(pn)[:, None, None]
    all_ranks = np.arange(pm * pn)
    ak_lo = np.array([lo for lo, _ in k_col_slices], dtype=np.int64)
    ak_hi = np.array([hi for _, hi in k_col_slices], dtype=np.int64)
    bk_lo = np.array([lo for lo, _ in k_row_slices], dtype=np.int64)
    bk_hi = np.array([hi for _, hi in k_row_slices], dtype=np.int64)

    # Round classes: row r holds the k-columns each owner contributes to
    # panel r's A and B panels, which determine the panel step's schedule.
    # Consecutive panels inside the same ownership slices repeat the row.
    starts = np.arange(0, k, panel_width, dtype=np.int64)[:, None]
    stops = np.minimum(starts + panel_width, k)
    table = np.concatenate([
        np.maximum(np.minimum(ak_hi, stops) - np.maximum(ak_lo, starts), 0),
        np.maximum(np.minimum(bk_hi, stops) - np.maximum(bk_lo, starts), 0),
    ], axis=1)

    def post_panel(delta: CommCounters, row: np.ndarray) -> None:
        w_a, w_b = row[:pn], row[pn:]
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        word_parts: list[np.ndarray] = []
        if pn > 1:
            active = w_a > 0
            src_parts.append(row_srcs[:, active, :].ravel())
            dst_parts.append(row_dsts[:, active, :].ravel())
            word_parts.append(np.repeat(
                np.multiply.outer(lm, w_a[active]).ravel(), pn - 1
            ))
        if pm > 1:
            active = w_b > 0
            src_parts.append(col_srcs[:, active, :].ravel())
            dst_parts.append(col_dsts[:, active, :].ravel())
            word_parts.append(np.repeat(
                np.multiply.outer(ln, w_b[active]).ravel(), pm - 1
            ))
        if src_parts:
            delta.post_transfers(
                np.concatenate(src_parts), np.concatenate(dst_parts),
                np.concatenate(word_parts), kind="input",
            )
        # The ownership slices tile k, so the overlaps sum to the panel width.
        delta.add_flops(all_ranks, mn_outer * (2 * int(w_a.sum())))

    def multiply_panel(panel: int) -> None:
        """Strided panel assembly + one broadcasting batched GEMM."""
        panel_start = panel * panel_width
        panel_stop = min(panel_start + panel_width, k)
        width = panel_stop - panel_start
        a_panels = np.zeros((pm, lm_max, width), dtype=dtype)
        for j in np.flatnonzero(table[panel, :pn]):
            lo = max(int(ak_lo[j]), panel_start)
            hi = min(int(ak_hi[j]), panel_stop)
            a_panels[:, :, lo - panel_start : hi - panel_start] = (
                a_plane.data[j::pn, :, lo - ak_lo[j] : hi - ak_lo[j]]
            )
        b_panels = np.zeros((pn, width, ln_max), dtype=dtype)
        for i in np.flatnonzero(table[panel, pn:]):
            lo = max(int(bk_lo[i]), panel_start)
            hi = min(int(bk_hi[i]), panel_stop)
            b_panels[:, lo - panel_start : hi - panel_start, :] = (
                b_plane.data[i * pn : (i + 1) * pn, lo - bk_lo[i] : hi - bk_lo[i], :]
            )
        np.add(c_view, np.matmul(a_panels[:, None], b_panels[None, :]), out=c_view)

    if numeric:
        c_view = c_plane.data.reshape(pm, pn, lm_max, ln_max)
    for panels, delta in machine.round_classes(table, post_panel):
        for panel in panels:
            machine.post_round(delta)
            if numeric:
                multiply_panel(panel)
            machine.commit_round()

    if not numeric:
        return ShapeToken((m, n))
    c_global = np.zeros((m, n), dtype=dtype)
    for i in range(pm):
        i0, i1 = i_ranges[i]
        for j in range(pn):
            j0, j1 = j_ranges[j]
            c_global[i0:i1, j0:j1] = c_view[i, j, : i1 - i0, : j1 - j0]
    return c_global
