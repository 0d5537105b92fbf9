"""Processor-grid fitting (``FitRanks``, section 7.1).

Matrix dimensions rarely divide evenly by the ideal local-domain sizes, and
the available processor count rarely factors into a matching grid.  COSMA
therefore searches over grids that use *at most* ``p`` processors -- allowing
up to a fraction ``delta`` of them to stay idle -- and picks the grid whose
busiest local domain touches the fewest words: ``lm lk + lk ln + lm ln``
(:func:`domain_io_words`), the per-processor I/O that Theorem 2 bounds and
``Plan.optimality_ratio`` divides by the bound.  Figure 5 of the paper shows
the flagship example: with 65 ranks and square matrices, dropping a single
rank enables a ``4 x 4 x 4`` grid whose domain touches 36% fewer words than
the best 65-rank grid's (``1 x 5 x 13``), at the price of 1.5% more
computation per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.intmath import all_factorizations_3d, ceil_div
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class ProcessorGrid:
    """A 3-D processor grid ``[pm x pn x pk]`` over the ``(i, j, k)`` iteration space."""

    pm: int
    pn: int
    pk: int

    def __post_init__(self) -> None:
        check_positive_int(self.pm, "pm")
        check_positive_int(self.pn, "pn")
        check_positive_int(self.pk, "pk")

    @property
    def p_used(self) -> int:
        """Number of ranks the grid actually uses."""
        return self.pm * self.pn * self.pk

    def local_extents(self, m: int, n: int, k: int) -> tuple[int, int, int]:
        """Per-rank local domain extents (rounded up for the boundary ranks)."""
        return (ceil_div(m, self.pm), ceil_div(n, self.pn), ceil_div(k, self.pk))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pm, self.pn, self.pk)

    def __iter__(self):
        return iter((self.pm, self.pn, self.pk))


def domain_io_words(lm, ln, lk):
    """Words an ``lm x ln x lk`` local domain touches: its A and B
    projections plus its C block, the quantity Theorem 2 bounds.  Takes ints
    or int64 arrays."""
    return lm * lk + lk * ln + lm * ln


def total_received_words(m, n, k, pm, pn, pk):
    """Words all ranks of a ``pm x pn x pk`` COSMA run receive together:
    every A panel reaches the ``pn - 1`` ranks of its fiber that do not own
    it, every B panel ``pm - 1``, and ``pk - 1`` partial C blocks are reduced
    per output block.  The sum of :func:`repro.core.cosma.received_words`,
    however ragged the split; takes ints or int64 arrays."""
    return (pn - 1) * m * k + (pm - 1) * n * k + (pk - 1) * m * n


def candidate_grids(p_used: int, m: int, n: int, k: int) -> list[ProcessorGrid]:
    """All grids using exactly ``p_used`` ranks, with no dimension exceeding its extent."""
    return [ProcessorGrid(pm, pn, pk) for pm, pn, pk in all_factorizations_3d(p_used)
            if pm <= m and pn <= n and pk <= k]


@dataclass(frozen=True)
class GridFit:
    """Result of :func:`fit_ranks`."""

    grid: ProcessorGrid
    p_available: int
    #: :func:`domain_io_words` of the grid's busiest (rank-0) domain.
    domain_io_words: int
    computation_per_rank: int

    @property
    def idle_ranks(self) -> int:
        return self.p_available - self.grid.p_used

    @property
    def idle_fraction(self) -> float:
        return self.idle_ranks / self.p_available


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``range(starts[i], starts[i] + counts[i])`` for every ``i``, concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _candidates(lo: int, hi: int, m: int, n: int, k: int) -> tuple[np.ndarray, ...]:
    """Every ``(pm, pn, pk)`` with ``lo <= pm pn pk <= hi``, ``pm <= m``,
    ``pn <= n`` and ``pk <= k``, as three int64 arrays, ordered by ``pm``,
    then ``pn``, then ``pk``."""
    pm = np.arange(1, min(m, hi) + 1, dtype=np.int64)
    pn_counts = np.minimum(n, hi // pm)
    pn = _ranges(np.ones_like(pm), pn_counts)
    pm = np.repeat(pm, pn_counts)
    pair = pm * pn
    pk_lo = -(-lo // pair)
    pk_counts = np.minimum(k, hi // pair) - pk_lo + 1
    # Most pairs (6 in 7 at p = 65,536) have no pk in the window.
    keep = pk_counts > 0
    pm, pn, pk_lo, pk_counts = pm[keep], pn[keep], pk_lo[keep], pk_counts[keep]
    return np.repeat(pm, pk_counts), np.repeat(pn, pk_counts), _ranges(pk_lo, pk_counts)


def _first_min(keys: tuple[np.ndarray, ...]) -> int:
    """Index of the lexicographically smallest candidate, ``keys[0]`` first;
    of equal ones, the first."""
    index = np.arange(keys[0].size)
    for key in keys:
        key = key[index]
        index = index[key == key.min()]
    return int(index[0])


def fit_ranks(
    m: int,
    n: int,
    k: int,
    p: int,
    max_idle_fraction: float = 0.03,
    memory_words: int | None = None,
) -> GridFit:
    """``FitRanks`` (Algorithm 1, line 3): choose the best processor grid.

    Enumerates every grid of every processor count ``p_used`` in
    ``[ceil(p * (1 - max_idle_fraction)), p]``, no dimension above its
    matrix extent, as int64 arrays in one pass, and returns the grid whose
    busiest domain touches the fewest words (:func:`domain_io_words`, with
    ceil extents).  Ties go to (1) the fewest words received in total
    (:func:`total_received_words`), (2) less computation per rank, (3) a more
    balanced grid, (4) more ranks used, then (5) the smaller ``pm``, then
    ``pn``.  Only the winner becomes a :class:`ProcessorGrid`.

    Parameters
    ----------
    m, n, k:
        Matrix dimensions.
    p:
        Available processors.
    max_idle_fraction:
        The tunable parameter ``delta``: the largest fraction of processors
        the optimizer may leave idle (3% in the paper's Piz Daint runs).
    memory_words:
        Per-rank memory ``S``.  When given, only grids whose rank-0 C block
        plus a one-wide panel step fits (``lm ln + lm + ln <= S``) compete,
        unless no grid in the window fits, when all of them do.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    max_idle_fraction = check_probability(max_idle_fraction, "max_idle_fraction")

    min_p_used = max(1, int(math.ceil(p * (1.0 - max_idle_fraction))))
    pm, pn, pk = _candidates(min_p_used, p, m, n, k)
    if pm.size == 0:
        # Every grid inside the delta window has an extent above a matrix
        # dimension: widen the search downward to the largest processor count
        # that has a grid (1 x 1 x 1 always does).
        pm, pn, pk = _candidates(1, min_p_used - 1, m, n, k)
        largest = pm * pn * pk == (pm * pn * pk).max()
        pm, pn, pk = pm[largest], pn[largest], pk[largest]
    lm, ln, lk = -(-m // pm), -(-n // pn), -(-k // pk)
    if memory_words is not None:
        fits = lm * ln + lm + ln <= memory_words
        if fits.any():
            pm, pn, pk, lm, ln, lk = (array[fits] for array in (pm, pn, pk, lm, ln, lk))
    io = domain_io_words(lm, ln, lk)
    work = lm * ln * lk
    spread = np.maximum(np.maximum(pm, pn), pk) - np.minimum(np.minimum(pm, pn), pk)
    best = _first_min((io, total_received_words(m, n, k, pm, pn, pk), work, spread,
                       -(pm * pn * pk)))
    return GridFit(grid=ProcessorGrid(int(pm[best]), int(pn[best]), int(pk[best])),
                   p_available=p, domain_io_words=int(io[best]),
                   computation_per_rank=int(work[best]))
