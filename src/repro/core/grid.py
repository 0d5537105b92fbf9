"""Processor-grid fitting (``FitRanks``, section 7.1).

Matrix dimensions rarely divide evenly by the ideal local-domain sizes, and
the available processor count rarely factors into a matching grid.  COSMA
therefore searches over grids that use *at most* ``p`` processors -- allowing
up to a fraction ``delta`` of them to stay idle -- and picks the grid with the
smallest per-rank communication volume.  Figure 5 of the paper shows the
flagship example: with 65 ranks and square matrices, dropping a single rank
enables a ``4 x 4 x 4`` grid that communicates ~36% less than the best
65-rank grid, at the price of 1.5% more computation per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def communication_volume_per_rank(
    grid: ProcessorGrid, m: int, n: int, k: int, memory_words: int | None = None
) -> float:
    """:func:`fit_ranks`' objective: an estimate of the words a rank receives
    in a COSMA run on this grid, not the count.

    The count is :func:`repro.core.cosma.received_words` on the grid's
    decomposition (what ``plan()`` returns); on the ``grid240`` campaign this
    estimate lies between 0.35x and 1.10x of it.  It reads low where the
    degraded branch below applies: the schedule keeps its whole C block
    anyway and moves more than that branch charges.

    A rank with local extents ``(lm, ln, lk)`` needs the ``lm x lk`` block of A
    and the ``lk x ln`` block of B; of these it initially owns ``1/pn`` and
    ``1/pm`` respectively (the blocked layout splits each panel across the
    ranks that will broadcast it).  When the grid is parallelized along ``k``
    (``pk > 1``) the ``lm x ln`` partial results must additionally be reduced.
    This is the discrete counterpart of ``Q = 2ab + a^2`` from section 6.3.

    When ``memory_words`` is given and the ``lm x ln`` output block does not
    fit in it, the rank cannot keep its accumulator resident: it must process
    the domain in output tiles of at most ``S`` words and re-fetch the remote
    panels for each tile, so the input traffic degrades to the sequential-style
    ``2 lm ln lk / sqrt(S)`` (the I/O constraint ``a^2 <= S`` of section 6.3).
    """
    return _volume(*grid, *grid.local_extents(m, n, k), memory_words)


def _volume(pm: int, pn: int, pk: int, lm: int, ln: int, lk: int,
            memory_words: int | None) -> float:
    """:func:`communication_volume_per_rank` of a ``pm x pn x pk`` grid with
    local extents ``(lm, ln, lk)``."""
    if memory_words is not None and lm * ln > memory_words:
        volume_inputs = 2.0 * lm * ln * lk / math.sqrt(memory_words)
    else:
        volume_a = lm * lk * (pn - 1) / pn
        volume_b = ln * lk * (pm - 1) / pm
        volume_inputs = volume_a + volume_b
    volume_c = lm * ln * (pk - 1) / pk if pk > 1 else 0.0
    return volume_inputs + volume_c


def computation_per_rank(grid: ProcessorGrid, m: int, n: int, k: int) -> int:
    """Multiplications assigned to the busiest rank of the grid."""
    lm, ln, lk = grid.local_extents(m, n, k)
    return lm * ln * lk


def candidate_grids(p_used: int, m: int, n: int, k: int) -> list[ProcessorGrid]:
    """All grids using exactly ``p_used`` ranks, with no dimension exceeding its extent."""
    grids = []
    for pm, pn, pk in all_factorizations_3d(p_used):
        if pm <= m and pn <= n and pk <= k:
            grids.append(ProcessorGrid(pm, pn, pk))
    return grids


@dataclass(frozen=True)
class GridFit:
    """Result of :func:`fit_ranks`."""

    grid: ProcessorGrid
    p_available: int
    communication_per_rank: float
    computation_per_rank: int

    @property
    def idle_ranks(self) -> int:
        return self.p_available - self.grid.p_used

    @property
    def idle_fraction(self) -> float:
        return self.idle_ranks / self.p_available


def fit_ranks(
    m: int,
    n: int,
    k: int,
    p: int,
    max_idle_fraction: float = 0.03,
    memory_words: int | None = None,
) -> GridFit:
    """``FitRanks`` (Algorithm 1, line 3): choose the best processor grid.

    Enumerates every processor count ``p_used`` in
    ``[ceil(p * (1 - max_idle_fraction)), p]`` and every 3-D factorization of
    each, and returns the grid minimizing the per-rank communication volume.
    Ties are broken in favour of (1) more ranks used (less computation per
    rank) and (2) a more balanced grid.

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
        Per-rank memory ``S``; when given, grids whose local output block does
        not fit are charged the degraded (re-fetching) communication cost.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    max_idle_fraction = check_probability(max_idle_fraction, "max_idle_fraction")

    def best_fit_at(p_used: int, incumbent: GridFit | None) -> GridFit | None:
        # Candidates are scored as (communication, computation, grid) tuples;
        # only a new winner becomes a GridFit.
        best = seed = None if incumbent is None else (
            incumbent.communication_per_rank, incumbent.computation_per_rank,
            incumbent.grid.as_tuple())
        for pm, pn, pk in all_factorizations_3d(p_used):
            if pm <= m and pn <= n and pk <= k:
                lm, ln, lk = ceil_div(m, pm), ceil_div(n, pn), ceil_div(k, pk)
                score = (_volume(pm, pn, pk, lm, ln, lk, memory_words), lm * ln * lk, (pm, pn, pk))
                if best is None or _better(score, best):
                    best = score
        if best is seed:
            return incumbent
        return GridFit(grid=ProcessorGrid(*best[2]), p_available=p,
                       communication_per_rank=best[0], computation_per_rank=best[1])

    min_p_used = max(1, int(math.ceil(p * (1.0 - max_idle_fraction))))
    best: GridFit | None = None
    for p_used in range(p, min_p_used - 1, -1):
        best = best_fit_at(p_used, best)
    if best is None:
        # Every candidate grid inside the delta window was rejected (e.g.
        # every factorization of p has an extent exceeding a matrix
        # dimension).  Widen the search downward and use the largest feasible
        # processor count instead of collapsing to a single rank; the 1x1x1
        # grid remains the ultimate fallback because it is always feasible.
        for p_used in range(min_p_used - 1, 0, -1):
            best = best_fit_at(p_used, best)
            if best is not None:
                break
    return best


def _better(candidate: tuple, incumbent: tuple) -> bool:
    """Ordering used by :func:`fit_ranks` on ``(communication, computation,
    grid)`` scores (lower communication first)."""
    if not math.isclose(candidate[0], incumbent[0], rel_tol=1e-9):
        return candidate[0] < incumbent[0]
    if candidate[1] != incumbent[1]:
        return candidate[1] < incumbent[1]
    # Prefer more balanced grids (smaller max dimension).
    return max(candidate[2]) - min(candidate[2]) < max(incumbent[2]) - min(incumbent[2])
