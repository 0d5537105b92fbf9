"""Cannon's algorithm (1969): the classical 2D decomposition.

On a ``q x q`` grid (``q = isqrt(p)``, the other ranks idle) holding ``q x q``
blocks of A and B, an alignment (row ``i`` of A shifted ``i`` blocks left,
column ``j`` of B ``j`` up) precedes ``q`` rounds of *multiply, shift A left
and B up by one*: about ``k (m + n) / sqrt(p)`` words per rank whatever the
memory, which is why 2D algorithms lose to 2.5D/COSMA when memory is spare.

That is SUMMA on the ``q x q`` grid with block-wide panels passed around each
fiber by the ``"ring"`` exchange of :mod:`repro.core.cosma` (a rank sends and
receives one A and one B block per round, as per shift), plus the skew.  The
engine, :func:`cannon_run`, is SUMMA's (:func:`repro.baselines.summa.run_panels`),
product included: the GEMM box of the padded decomposition, cut at the
operands' ``m x n x k``, so the padding is counted and never allocated.
Cannon's own part is :func:`cannon_decomposition` (zero padding included,
and counted) and the skew, one closed-form delta.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.summa import run_panels, summa_decomposition
from repro.core.decomposition import CosmaDecomposition
from repro.machine.counters import (
    COUNTER_FIELDS, INPUT_WORDS, MESSAGES_RECEIVED, MESSAGES_SENT, ROUNDS, WORDS_RECEIVED, WORDS_SENT,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, ShapeToken
from repro.utils.intmath import ceil_div
from repro.utils.validation import check_positive_int


def cannon_decomposition(m: int, n: int, k: int, p: int, memory_words: int) -> CosmaDecomposition:
    """Cannon's schedule: SUMMA on the largest ``q x q`` grid within ``p``,
    every extent padded to ``q`` blocks of ``ceil(extent / q)``, one block per
    round.  A plan and the run it predicts both come here."""
    q = math.isqrt(check_positive_int(p, "p"))
    bm, bn, bk = (ceil_div(extent, q) for extent in (m, n, k))
    return summa_decomposition(q * bm, q * bn, q * bk, p, memory_words, grid=(q, q), panel_width=bk)


def skew_words(decomposition: CosmaDecomposition) -> np.ndarray:
    """Words every rank of the ``q x q`` grid receives in the skew, int64 and
    row-major: one A block off row 0 and one B block off column 0.  The run's
    counter delta and the plan both read it."""
    q = decomposition.grid.pm
    bm, bn, bk = (decomposition.m // q, decomposition.n // q, decomposition.k // q)
    moves = np.minimum(np.arange(q), 1)
    return (moves[:, None] * (bm * bk) + moves * (bk * bn)).ravel()


def cannon_run(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
) -> GemmProduct | ShapeToken:
    """Cannon's engine on :func:`cannon_decomposition`: the skew, then
    SUMMA's panel rounds with the ring exchange; returns the ``m x n``
    product (a token in ``volume`` mode), ``m`` and ``n`` read off the
    operands.

    The padding is the decomposition's alone: the product's GEMM box reads
    the caller's A and B as they are, cut at their edges, whether or not
    ``q`` divides the extents.
    """
    q = decomposition.grid.pm

    # The skew: a rank off row 0 moves one A block, one off column 0 one B
    # block, and every grid rank pays a round per shift.
    moves = np.minimum(np.arange(q), 1)
    skew = np.zeros((len(COUNTER_FIELDS), q * q), dtype=np.int64)
    grid = skew.reshape(-1, q, q)  # (field, i, j)
    grid[WORDS_SENT] = grid[WORDS_RECEIVED] = skew_words(decomposition).reshape(q, q)
    grid[MESSAGES_SENT] = grid[MESSAGES_RECEIVED] = moves[:, None] + moves
    grid[INPUT_WORDS] = 2 * grid[WORDS_SENT]
    grid[ROUNDS] = 2
    machine.post_delta("cannon-skew", skew)

    return run_panels(machine, a_matrix, b_matrix, decomposition, "ring")
