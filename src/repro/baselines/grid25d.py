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

``plane`` and ``volume`` runs take the stacked-array engine
(:func:`_grid25d_plane`; ``volume`` is that engine minus the numerics); the
per-rank loop in :func:`grid25d_multiply` serves ``legacy`` / ``zerocopy``
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import reduce, reduce_hops
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
    if grid is None:
        grid = choose_25d_grid(m, n, k, p, memory_words)
    qm, qn, c = grid
    if qm * qn * c > p:
        raise ValueError(f"grid {grid} needs {qm * qn * c} ranks but only {p} are available")
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words)

    def rank_of(i: int, j: int, layer: int) -> int:
        return (i * qn + j) * c + layer

    i_ranges = split_offsets(m, qm)
    j_ranges = split_offsets(n, qn)
    layer_k_ranges = split_offsets(k, c)

    if machine.transport.planar or machine.transport.counters_only:
        c_global = _grid25d_plane(
            machine, a_matrix, b_matrix, qm, qn, c,
            i_ranges, j_ranges, layer_k_ranges,
        )
        return Grid25DRunResult(matrix=c_global, grid=(qm, qn, c), counters=machine.counters)

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
                # from the process column.
                a_parts = [
                    local_a[o] if o == r else machine.send(o, r, local_a[o], kind="input")
                    for o in a_owners
                ]
                b_parts = [
                    local_b[o] if o == r else machine.send(o, r, local_b[o], kind="input")
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
    qm: int,
    qn: int,
    c: int,
    i_ranges: list[tuple[int, int]],
    j_ranges: list[tuple[int, int]],
    layer_k_ranges: list[tuple[int, int]],
) -> np.ndarray:
    """2.5D on the stacked-array engine; returns the global product.

    All ``qm*qn*c`` local blocks live in zero-padded planes (slot = rank id).
    Per layer, the row/column panel gathers are strided slot slices, the
    layer's ``qm x qn`` multiplies are one broadcasting ``np.matmul``, and
    the final cross-layer reduction is one ``np.add.reduce`` over each
    ``(i, j)`` fiber's contiguous slot run.  Counters are posted batched and
    byte-identical to the per-hop reference path.

    In ``volume`` mode (counters-only transport) the same loop runs without
    the numerics: no plane is allocated and a token is returned as the
    product.  Either way the ranks' ``A`` / ``B`` / ``C`` (and the layer-0
    ``C_final``) words are posted to the machine's resident-words vector,
    not stored.
    """
    m = i_ranges[-1][1]
    n = j_ranges[-1][1]
    numeric = not machine.transport.counters_only
    dtype = machine.transport.dtype
    lm = np.array([hi - lo for lo, hi in i_ranges], dtype=np.int64)
    ln = np.array([hi - lo for lo, hi in j_ranges], dtype=np.int64)
    lm_max, ln_max = int(lm.max()), int(ln.max())
    layer_a_slices = []
    layer_b_slices = []
    for layer in range(c):
        lk0, lk1 = layer_k_ranges[layer]
        layer_a_slices.append([(lk0 + lo, lk0 + hi) for lo, hi in split_offsets(lk1 - lk0, qn)])
        layer_b_slices.append([(lk0 + lo, lk0 + hi) for lo, hi in split_offsets(lk1 - lk0, qm)])
    # Slice widths, (layer, j) for A and (layer, i) for B.
    a_widths = np.array(
        [[hi - lo for lo, hi in slices] for slices in layer_a_slices], dtype=np.int64)
    b_widths = np.array(
        [[hi - lo for lo, hi in slices] for slices in layer_b_slices], dtype=np.int64)

    slots = qm * qn * c
    if numeric:
        a_plane = machine.new_plane("grid25d.A", (slots, lm_max, max(1, int(a_widths.max()))))
        b_plane = machine.new_plane("grid25d.B", (slots, max(1, int(b_widths.max())), ln_max))
        c_plane = machine.new_plane("grid25d.C", (slots, lm_max, ln_max))
        for layer in range(c):
            for i in range(qm):
                i0, i1 = i_ranges[i]
                bk0, bk1 = layer_b_slices[layer][i]
                for j in range(qn):
                    j0, j1 = j_ranges[j]
                    ak0, ak1 = layer_a_slices[layer][j]
                    slot = (i * qn + j) * c + layer
                    a_plane.data[slot, : i1 - i0, : ak1 - ak0] = a_matrix[i0:i1, ak0:ak1]
                    b_plane.data[slot, : bk1 - bk0, : j1 - j0] = b_matrix[bk0:bk1, j0:j1]
    # Ranks are row-major in (i, j, layer), each holding its true-shape blocks.
    mn_outer = np.multiply.outer(lm, ln).ravel()
    machine.post_resident(
        "A", slice(0, slots), (lm[:, None, None] * a_widths.T[None, :, :]).ravel())
    machine.post_resident(
        "B", slice(0, slots), (b_widths.T[:, None, :] * ln[None, :, None]).ravel())
    machine.post_resident("C", slice(0, slots), np.repeat(mn_outer, c))
    # Stores are layer-invariant; one check records the reference path's peak.
    machine.check_memory()

    # Off-diagonal (receiver, source) index pairs within a row / a column.
    pair_dst_j, pair_src_j = np.nonzero(
        np.arange(qn)[:, None] != np.arange(qn)[None, :]
    )
    pair_dst_i, pair_src_i = np.nonzero(
        np.arange(qm)[:, None] != np.arange(qm)[None, :]
    )
    all_i = np.arange(qm)
    all_j = np.arange(qn)

    for layer in range(c):
        lk0, lk1 = layer_k_ranges[layer]
        lk = lk1 - lk0
        aw, bw = a_widths[layer], b_widths[layer]
        layer_ranks = ((all_i[:, None] * qn + all_j[None, :]) * c + layer).ravel()
        # Row gathers: rank (i, j) receives (i, j') for every j' != j; column
        # gathers symmetrically.  One batched post for the whole layer.
        src_parts = []
        dst_parts = []
        word_parts = []
        if qn > 1:
            src_parts.append(
                ((all_i[:, None] * qn + pair_src_j[None, :]) * c + layer).ravel())
            dst_parts.append(
                ((all_i[:, None] * qn + pair_dst_j[None, :]) * c + layer).ravel())
            word_parts.append(np.multiply.outer(lm, aw[pair_src_j]).ravel())
        if qm > 1:
            src_parts.append(
                ((pair_src_i[:, None] * qn + all_j[None, :]) * c + layer).ravel())
            dst_parts.append(
                ((pair_dst_i[:, None] * qn + all_j[None, :]) * c + layer).ravel())
            word_parts.append(np.multiply.outer(bw[pair_src_i], ln).ravel())
        if src_parts:
            machine.post_transfers(
                np.concatenate(src_parts), np.concatenate(dst_parts),
                np.concatenate(word_parts), kind="input",
            )
        machine.post_flops(layer_ranks, mn_outer * (2 * lk))
        if not numeric:
            continue

        # Panel assembly from strided slot slices + one broadcasting GEMM.
        a_panels = np.zeros((qm, lm_max, max(1, lk)), dtype=dtype)
        offset = 0
        for j in range(qn):
            if aw[j] > 0:
                a_panels[:, :, offset : offset + aw[j]] = (
                    a_plane.data[j * c + layer :: qn * c, :, : aw[j]]
                )
            offset += int(aw[j])
        b_panels = np.zeros((qn, max(1, lk), ln_max), dtype=dtype)
        offset = 0
        for i in range(qm):
            if bw[i] > 0:
                b_panels[:, offset : offset + bw[i], :] = (
                    b_plane.data[i * qn * c + layer : (i + 1) * qn * c + layer : c, : bw[i], :]
                )
            offset += int(bw[i])
        layer_c = c_plane.data[layer::c]
        layer_c += np.matmul(a_panels[:, None], b_panels[None, :]).reshape(
            qm * qn, lm_max, ln_max
        )

    # Cross-layer reduction onto layer 0: counters via the binomial schedule,
    # numerics via one np.add.reduce over each fiber's contiguous slot run.
    if c > 1:
        hops = reduce_hops(c)
        r_src = np.array([s for s, _ in hops], dtype=np.int64)
        r_dst = np.array([d for _, d in hops], dtype=np.int64)
        bases = (all_i[:, None] * qn + all_j[None, :]).ravel() * c
        hop_words = np.repeat(mn_outer, len(hops))
        dsts = (bases[:, None] + r_dst[None, :]).ravel()
        machine.post_transfers(
            (bases[:, None] + r_src[None, :]).ravel(), dsts, hop_words, kind="output",
        )
        machine.counters.add_flops(dsts, hop_words)
    if numeric:
        totals = np.add.reduce(
            c_plane.data.reshape(qm * qn, c, lm_max, ln_max), axis=1
        )
    machine.post_resident("C_final", slice(0, slots, c), mn_outer)
    if not numeric:
        return ShapeToken((m, n))
    c_global = np.zeros((m, n), dtype=dtype)
    for i in range(qm):
        i0, i1 = i_ranges[i]
        for j in range(qn):
            j0, j1 = j_ranges[j]
            c_global[i0:i1, j0:j1] = totals[i * qn + j, : i1 - i0, : j1 - j0]
    return c_global
