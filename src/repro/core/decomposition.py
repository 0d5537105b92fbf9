"""Local domains and the blocked data decomposition (``GetDataDecomp``, section 7.6).

Given a fitted processor grid ``[pm x pn x pk]``, every used rank is assigned

* a **local domain**: the cuboid of multiplications
  ``[i-range] x [j-range] x [k-range]`` it will perform, and
* its **initially owned** pieces of ``A``, ``B`` and ``C``.

The ownership follows the paper's blocked layout: the ``lm x lk`` panel of A
needed by a grid row fiber ``(pi, *, pk)`` is stored once across that fiber --
each of the ``pn`` ranks owns a contiguous ``1/pn`` slice of the panel's
columns, namely the slice it will broadcast to the others.  Symmetrically for
B along the ``i`` fiber.  The output block ``lm x ln`` of C is owned by the
``pk = 0`` rank of each ``(pi, pj, *)`` fiber, which receives the reduced
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.grid import GridFit, ProcessorGrid, fit_ranks
from repro.machine.transport import as_payload, ascontiguous
from repro.utils.intmath import split_offsets
from repro.utils.validation import check_positive_int

Range = tuple[int, int]


@dataclass(frozen=True)
class LocalDomain:
    """The cuboid of multiplications assigned to one rank."""

    rank: int
    coords: tuple[int, int, int]
    i_range: Range
    j_range: Range
    k_range: Range

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            self.i_range[1] - self.i_range[0],
            self.j_range[1] - self.j_range[0],
            self.k_range[1] - self.k_range[0],
        )

    @property
    def volume(self) -> int:
        lm, ln, lk = self.shape
        return lm * ln * lk

    #: Ownership slices -------------------------------------------------
    a_owned_k_range: Range = (0, 0)
    b_owned_k_range: Range = (0, 0)
    owns_c: bool = False


@dataclass(frozen=True)
class CosmaDecomposition:
    """The complete COSMA decomposition for a problem instance."""

    m: int
    n: int
    k: int
    p: int
    s: int
    grid: ProcessorGrid
    domains: tuple[LocalDomain, ...]
    idle_ranks: tuple[int, ...]
    step_size: int
    num_steps: int

    @property
    def p_used(self) -> int:
        return self.grid.p_used

    def domain_of(self, rank: int) -> LocalDomain:
        for domain in self.domains:
            if domain.rank == rank:
                return domain
        raise KeyError(f"rank {rank} has no local domain (it may be idle)")

    def coords_to_rank(self, pi: int, pj: int, pk: int) -> int:
        """Row-major mapping of grid coordinates to machine ranks."""
        return (pi * self.grid.pn + pj) * self.grid.pk + pk

    def j_fiber(self, pi: int, pk: int) -> list[int]:
        """Ranks sharing the A panel (same ``pi``/``pk``, all ``pj``)."""
        return [self.coords_to_rank(pi, pj, pk) for pj in range(self.grid.pn)]

    def i_fiber(self, pj: int, pk: int) -> list[int]:
        """Ranks sharing the B panel (same ``pj``/``pk``, all ``pi``)."""
        return [self.coords_to_rank(pi, pj, pk) for pi in range(self.grid.pm)]

    def k_fiber(self, pi: int, pj: int) -> list[int]:
        """Ranks reducing the same C block (same ``pi``/``pj``, all ``pk``)."""
        return [self.coords_to_rank(pi, pj, pk) for pk in range(self.grid.pk)]

    def max_local_words(self) -> int:
        """Peak words a rank must hold: its A panel slice + B panel slice + C block + step buffers."""
        worst = 0
        for domain in self.domains:
            lm, ln, _lk = domain.shape
            a_words = lm * (domain.a_owned_k_range[1] - domain.a_owned_k_range[0])
            b_words = ln * (domain.b_owned_k_range[1] - domain.b_owned_k_range[0])
            c_words = lm * ln
            step_words = (lm + ln) * self.step_size
            worst = max(worst, a_words + b_words + c_words + step_words)
        return worst


def build_decomposition(
    m: int,
    n: int,
    k: int,
    p: int,
    s: int,
    max_idle_fraction: float = 0.03,
    grid: ProcessorGrid | None = None,
) -> CosmaDecomposition:
    """Build the full COSMA decomposition (Algorithm 1, lines 1-7).

    Parameters
    ----------
    m, n, k:
        Matrix dimensions.
    p:
        Available processors.
    s:
        Local memory per processor, in words.
    max_idle_fraction:
        The ``delta`` parameter of ``FitRanks``.
    grid:
        Optional explicit processor grid (used by tests and ablation
        benchmarks); when omitted, :func:`repro.core.grid.fit_ranks` chooses it.

    The result is memoized on ``(m, n, k, p, s, grid)`` with the grid
    resolved, so a plan and the runs it feeds share one decomposition.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    s = check_positive_int(s, "S")

    if grid is None:
        fit: GridFit = fit_ranks(
            m, n, k, p, max_idle_fraction=max_idle_fraction, memory_words=s
        )
        grid = fit.grid
    if grid.p_used > p:
        raise ValueError(f"grid {grid.as_tuple()} uses {grid.p_used} ranks but only {p} are available")

    return _decompose(m, n, k, p, s, grid)


# A plan and the runs it feeds follow each other, so a few entries catch
# them all; each entry pins one LocalDomain per rank, so more would only cost
# a long campaign's workers memory.
@lru_cache(maxsize=4)
def _decompose(m: int, n: int, k: int, p: int, s: int, grid: ProcessorGrid) -> CosmaDecomposition:
    """The decomposition of one problem on one fitted grid, memoized.

    Planning and every run of a scenario ask for the same (frozen) value;
    :func:`repro.algorithms.plan_cache_clear` drops the memo (through
    :func:`decomposition_cache_clear`) together with the plans built from it.
    """
    i_ranges = split_offsets(m, grid.pm)
    j_ranges = split_offsets(n, grid.pn)
    k_ranges = split_offsets(k, grid.pk)

    # Latency-minimizing communication step: with lm x ln partial results
    # resident, 2 * step * max(lm, ln) extra words must fit in memory.
    lm0 = i_ranges[0][1] - i_ranges[0][0]
    ln0 = j_ranges[0][1] - j_ranges[0][0]
    lk0 = k_ranges[0][1] - k_ranges[0][0]
    free_words = s - lm0 * ln0
    if free_words >= (lm0 + ln0) * lk0:
        step_size = lk0
    else:
        step_size = max(1, free_words // (lm0 + ln0))
    num_steps = max(1, -(-lk0 // step_size))

    domains: list[LocalDomain] = []
    for pi in range(grid.pm):
        for pj in range(grid.pn):
            for pk in range(grid.pk):
                rank = (pi * grid.pn + pj) * grid.pk + pk
                i_range = i_ranges[pi]
                j_range = j_ranges[pj]
                k_range = k_ranges[pk]
                # Ownership: the local A panel's k-extent is split across the
                # pn ranks of the j fiber; rank pj owns its pj-th slice.
                a_slices = split_offsets(k_range[1] - k_range[0], grid.pn)
                a_lo, a_hi = a_slices[pj]
                a_owned = (k_range[0] + a_lo, k_range[0] + a_hi)
                # Symmetrically, the local B panel's k-extent is split across
                # the pm ranks of the i fiber.
                b_slices = split_offsets(k_range[1] - k_range[0], grid.pm)
                b_lo, b_hi = b_slices[pi]
                b_owned = (k_range[0] + b_lo, k_range[0] + b_hi)
                domains.append(
                    LocalDomain(
                        rank=rank,
                        coords=(pi, pj, pk),
                        i_range=i_range,
                        j_range=j_range,
                        k_range=k_range,
                        a_owned_k_range=a_owned,
                        b_owned_k_range=b_owned,
                        owns_c=(pk == 0),
                    )
                )
    idle = tuple(range(grid.p_used, p))
    return CosmaDecomposition(
        m=m,
        n=n,
        k=k,
        p=p,
        s=s,
        grid=grid,
        domains=tuple(domains),
        idle_ranks=idle,
        step_size=step_size,
        num_steps=num_steps,
    )


def decomposition_cache_clear() -> None:
    """Drop every memoized decomposition."""
    _decompose.cache_clear()


def distribute_matrices(
    decomposition: CosmaDecomposition,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
) -> dict[int, dict[str, np.ndarray]]:
    """Split the global inputs into each rank's initially owned pieces.

    Returns ``{rank: {"A": owned A slice, "B": owned B slice}}``.  This is the
    *initial data layout*; building it involves no algorithmic communication
    (the paper likewise assumes inputs start distributed in COSMA's blocked
    layout -- converting from block-cyclic is a separate, counted
    preprocessing step, see :mod:`repro.layouts.conversion`).
    """
    a_matrix = as_payload(a_matrix)
    b_matrix = as_payload(b_matrix)
    if a_matrix.shape != (decomposition.m, decomposition.k):
        raise ValueError(
            f"A has shape {a_matrix.shape}, expected {(decomposition.m, decomposition.k)}"
        )
    if b_matrix.shape != (decomposition.k, decomposition.n):
        raise ValueError(
            f"B has shape {b_matrix.shape}, expected {(decomposition.k, decomposition.n)}"
        )
    owned: dict[int, dict[str, np.ndarray]] = {}
    for domain in decomposition.domains:
        i0, i1 = domain.i_range
        j0, j1 = domain.j_range
        ak0, ak1 = domain.a_owned_k_range
        bk0, bk1 = domain.b_owned_k_range
        owned[domain.rank] = {
            "A": ascontiguous(a_matrix[i0:i1, ak0:ak1]),
            "B": ascontiguous(b_matrix[bk0:bk1, j0:j1]),
        }
    return owned
