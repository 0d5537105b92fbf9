"""Cannon's algorithm (1969): the classical 2D decomposition.

Processors form a square ``q x q`` grid (``q = sqrt(p)``); A and B are split
into ``q x q`` blocks.  After an initial alignment (row ``i`` of A blocks is
shifted ``i`` positions left, column ``j`` of B blocks ``j`` positions up),
the algorithm performs ``q`` rounds of *multiply local blocks, shift A left by
one, shift B up by one*.  The per-rank communicated volume is about
``q * (mk + nk)/p = k (m + n) / sqrt(p)``, independent of the available
memory -- which is exactly why 2D algorithms lose to 2.5D/COSMA when extra
memory exists.

Matrix dimensions that do not divide by ``q`` are zero-padded; the padding is
reflected in the measured volume, mirroring the real implementations'
behaviour on awkward sizes.

In ``plane`` mode (``machine.transport.planar``) the executor opts into the
stacked-array engine: the ``q^2`` A / B / C blocks live in three
:class:`~repro.machine.transport.PayloadPlane` stacks, a ring shift becomes
one fancy-indexed permutation of a stack's leading axis, and each round's
``q^2`` local multiply-accumulates become a single batched ``np.matmul``.
``volume`` mode is that engine minus the numerics (no stacks, no GEMMs).
Counters are written in closed form -- every entry of a shift's delta is a
constant of the rank's grid position -- and are byte-identical to the per-rank
loop in :func:`cannon_multiply`, which serves ``legacy`` / ``zerocopy`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.collectives import ring_shift
from repro.machine.counters import (
    FLOPS,
    INPUT_WORDS,
    MESSAGES_RECEIVED,
    MESSAGES_SENT,
    ROUNDS,
    WORDS_RECEIVED,
    WORDS_SENT,
    CommCounters,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import PayloadPlane, ShapeToken, as_payload, ascontiguous
from repro.utils.intmath import ceil_div
from repro.utils.validation import check_positive_int


@dataclass
class CannonRunResult:
    """Outcome of a Cannon run."""

    matrix: np.ndarray
    grid_size: int
    counters: CommCounters

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()


def _largest_square(p: int) -> int:
    """Largest ``q`` with ``q*q <= p`` -- ranks beyond ``q*q`` stay idle."""
    return int(math.isqrt(p))


def cannon_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    p: int,
    machine: DistributedMachine | None = None,
    memory_words: int | None = None,
    skew: bool = True,
) -> CannonRunResult:
    """Multiply ``A @ B`` with Cannon's algorithm on a simulated machine.

    Parameters
    ----------
    a_matrix, b_matrix:
        Global inputs (``m x k`` and ``k x n``).
    p:
        Available processors; the largest ``q x q <= p`` square grid is used.
    skew:
        Whether to perform (and count) the initial alignment shifts.  Real
        implementations sometimes pre-skew the data layout instead; disabling
        it models that variant.
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
    q = _largest_square(p)
    if q < 1:
        raise ValueError("Cannon's algorithm needs at least one processor")
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))

    # Zero-pad the matrices so every block has identical shape.
    bm = ceil_div(m, q)
    bn = ceil_div(n, q)
    bk = ceil_div(k, q)
    a_pad = machine.zeros((bm * q, bk * q))
    a_pad[:m, :k] = a_matrix
    b_pad = machine.zeros((bk * q, bn * q))
    b_pad[:k, :n] = b_matrix

    def rank_of(i: int, j: int) -> int:
        return i * q + j

    if machine.transport.planar or machine.transport.counters_only:
        c_pad = _cannon_plane(machine, a_pad, b_pad, q, bm, bn, bk, skew)
        return CannonRunResult(matrix=c_pad[:m, :n], grid_size=q, counters=machine.counters)

    # Initial blocked distribution (setup, not counted).
    a_blocks: dict[int, np.ndarray] = {}
    b_blocks: dict[int, np.ndarray] = {}
    c_blocks: dict[int, np.ndarray] = {}
    for i in range(q):
        for j in range(q):
            r = rank_of(i, j)
            a_blocks[r] = ascontiguous(a_pad[i * bm : (i + 1) * bm, j * bk : (j + 1) * bk])
            b_blocks[r] = ascontiguous(b_pad[i * bk : (i + 1) * bk, j * bn : (j + 1) * bn])
            c_blocks[r] = machine.zeros((bm, bn))
            machine.rank(r).put("A", a_blocks[r])
            machine.rank(r).put("B", b_blocks[r])
            machine.rank(r).put("C", c_blocks[r])

    # Initial alignment: shift row i of A left by i, column j of B up by j.
    if skew:
        for i in range(q):
            row = [rank_of(i, j) for j in range(q)]
            shifted = ring_shift(machine, row, {r: a_blocks[r] for r in row}, displacement=i)
            for r in row:
                a_blocks[r] = shifted[r]
        for j in range(q):
            col = [rank_of(i, j) for i in range(q)]
            shifted = ring_shift(machine, col, {r: b_blocks[r] for r in col}, displacement=j)
            for r in col:
                b_blocks[r] = shifted[r]

    # Main loop: q rounds of multiply + shift.
    for step in range(q):
        for i in range(q):
            for j in range(q):
                r = rank_of(i, j)
                machine.local_multiply(r, a_blocks[r], b_blocks[r], accumulate_into=c_blocks[r])
        if step == q - 1:
            machine.commit_round()
            break
        for i in range(q):
            row = [rank_of(i, j) for j in range(q)]
            shifted = ring_shift(machine, row, {r: a_blocks[r] for r in row}, displacement=1)
            for r in row:
                a_blocks[r] = shifted[r]
        for j in range(q):
            col = [rank_of(i, j) for i in range(q)]
            shifted = ring_shift(machine, col, {r: b_blocks[r] for r in col}, displacement=1)
            for r in col:
                b_blocks[r] = shifted[r]
        machine.check_memory()
        machine.commit_round()

    # Assemble (and un-pad) the result for verification.
    c_pad = machine.zeros((bm * q, bn * q))
    for i in range(q):
        for j in range(q):
            r = rank_of(i, j)
            c_pad[i * bm : (i + 1) * bm, j * bn : (j + 1) * bn] = c_blocks[r]
    return CannonRunResult(matrix=c_pad[:m, :n], grid_size=q, counters=machine.counters)


def _shift_permutation(q: int, displacement, axis: str) -> np.ndarray:
    """Slot permutation of one ring-shift step: ``new[slot] = old[perm[slot]]``.

    ``axis="row"`` shifts every grid row left by ``displacement`` blocks (the
    A shift); ``axis="col"`` shifts every column up (the B shift) -- exactly
    what :func:`~repro.machine.collectives.ring_shift` does rank by rank.
    ``displacement`` is one number, or one per slot (the skew's row ``i`` by
    ``i`` and column ``j`` by ``j``, composed into one permutation).
    """
    i_idx, j_idx = np.divmod(np.arange(q * q), q)
    if axis == "row":
        return i_idx * q + (j_idx + displacement) % q
    return ((i_idx + displacement) % q) * q + j_idx


def _cannon_plane(
    machine: DistributedMachine,
    a_pad: np.ndarray,
    b_pad: np.ndarray,
    q: int,
    bm: int,
    bn: int,
    bk: int,
    skew: bool,
) -> np.ndarray:
    """Cannon on the stacked-array engine; returns the padded global product.

    The ``q x q`` block grid of each operand is one ``(q^2, rows, cols)``
    stack; shifts permute the leading axis and multiplies are batched GEMMs.
    No transfer is expanded to count a shift: every entry of its delta is a
    constant of the rank's grid position, written by row assignment -- the
    skew as one delta added once, the main loop as two round classes.

    In ``volume`` mode (counters-only transport) the same loop runs without
    the numerics: no stack is built and a token is returned as the product.
    Either way the ranks' ``A`` / ``B`` / ``C`` words (every block of an
    operand has the same shape) are posted to the machine's resident-words
    vector, not stored.
    """
    numeric = not machine.transport.counters_only

    def to_stack(pad: np.ndarray, rows: int, cols: int) -> np.ndarray:
        return np.ascontiguousarray(
            pad.reshape(q, rows, q, cols).transpose(0, 2, 1, 3).reshape(q * q, rows, cols)
        )

    if numeric:
        a_plane = machine.register_plane(
            "cannon.A", PayloadPlane("cannon.A", data=to_stack(a_pad, bm, bk)),
            replace=True,
        )
        b_plane = machine.register_plane(
            "cannon.B", PayloadPlane("cannon.B", data=to_stack(b_pad, bk, bn)),
            replace=True,
        )
        c_plane = machine.new_plane("cannon.C", (q * q, bm, bn))
        # Working stacks; the registered planes keep the initial distribution,
        # matching the reference path's rank stores (shifts deliver new
        # buffers, they never overwrite the initially stored blocks).
        a_stack = a_plane.data
        b_stack = b_plane.data
    grid_ranks = slice(0, q * q)
    machine.post_resident("A", grid_ranks, bm * bk)
    machine.post_resident("B", grid_ranks, bk * bn)
    machine.post_resident("C", grid_ranks, bm * bn)

    i_idx, j_idx = np.divmod(np.arange(q * q), q)

    def post_shifts(delta: CommCounters, a_moves, b_moves) -> None:
        """One ring shift of every grid row (A) and one of every column (B).
        ``a_moves`` / ``b_moves`` are 1 where a rank's block moves and 0 where
        it stays: a moving rank sends its block and receives another of the
        same size, and every grid rank's round counter advances once per shift."""
        rows = delta.data[:, : q * q]
        rows[WORDS_SENT] = rows[WORDS_RECEIVED] = a_moves * (bm * bk) + b_moves * (bk * bn)
        rows[MESSAGES_SENT] = rows[MESSAGES_RECEIVED] = a_moves + b_moves
        rows[INPUT_WORDS] = 2 * rows[WORDS_SENT]
        rows[ROUNDS] = 2

    # Initial alignment: row i of A shifts left by i, column j of B up by j
    # (row 0 and column 0 stay put).  Not a round of its own: no boundary.
    if skew:
        delta = CommCounters.for_ranks(machine.p)
        post_shifts(delta, np.minimum(i_idx, 1), np.minimum(j_idx, 1))
        machine.post_rounds(delta, range(1))
        if numeric:
            a_stack = a_stack[_shift_permutation(q, i_idx, "row")]
            b_stack = b_stack[_shift_permutation(q, j_idx, "col")]

    # Main loop: q rounds of batched multiply + whole-grid shift by one.
    # Every non-final round is structurally identical (same grid, same block
    # shapes, shift by one): two round classes, the steady shift round and
    # the final multiply-only round.
    def post_step(delta: CommCounters, row: np.ndarray) -> None:
        delta.data[FLOPS, : q * q] = 2 * bm * bn * bk
        if not row[0]:  # not the final round (there is one only when q > 1)
            post_shifts(delta, 1, 1)

    is_final = (np.arange(q) == q - 1)[:, None]
    if q > 1:
        # The stores never change: one check records the per-shift checks' peak.
        machine.check_memory()
    for steps, delta in machine.round_classes(is_final, post_step):
        machine.post_rounds(delta, steps, lambda _: machine.commit_round())

    if not numeric:
        return ShapeToken((bm * q, bn * q))
    perm_a = _shift_permutation(q, 1, "row")
    perm_b = _shift_permutation(q, 1, "col")
    for step in range(q):
        np.add(c_plane.data, a_stack @ b_stack, out=c_plane.data)
        if step < q - 1:
            a_stack = a_stack[perm_a]
            b_stack = b_stack[perm_b]
    return c_plane.data.reshape(q, q, bm, bn).transpose(0, 2, 1, 3).reshape(bm * q, bn * q)
