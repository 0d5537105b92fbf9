"""Local domains and the blocked data decomposition (``GetDataDecomp``, section 7.6).

Given a fitted processor grid ``[pm x pn x pk]``, used rank
``(pi * pn + pj) * pk + kk`` (ranks are row-major in ``(pi, pj, kk)``) is
assigned

* a **local domain**: the cuboid of multiplications
  ``[i-range pi] x [j-range pj] x [k-range kk]`` it will perform, and
* its **initially owned** pieces of ``A``, ``B`` and ``C``.

The ownership follows the paper's blocked layout: the ``lm x lk`` panel of A
needed by a grid row fiber ``(pi, *, kk)`` is stored once across that fiber --
each of the ``pn`` ranks owns a contiguous ``1/pn`` slice of the panel's
columns, namely the slice it will broadcast to the others.  Symmetrically for
B along the ``i`` fiber.  The output block ``lm x ln`` of C is owned by the
``kk = 0`` rank of each ``(pi, pj, *)`` fiber, which receives the reduced
result.

All of that is five boundary arrays (:class:`CosmaDecomposition`); every
engine (and the per-hop test reference) reads a rank's ranges off them by its
grid coordinates.  There is no per-rank object.  The initial ownership of A and B,
as :class:`~repro.layouts.Layout` tables, is
:meth:`CosmaDecomposition.input_layouts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.grid import GridFit, ProcessorGrid, fit_ranks
from repro.layouts import Layout
from repro.utils.validation import check_positive_int


def _split_bounds(extents, parts: int) -> np.ndarray:
    """``split_offsets`` boundaries as an int64 array, for every extent at once.

    ``result[..., j]`` is where part ``j`` of ``extents[...]`` starts and
    ``result[..., parts]`` the extent itself: the first ``extent % parts``
    parts are one element longer, exactly as :func:`split_offsets` cuts.
    """
    extents = np.asarray(extents, dtype=np.int64)[..., None]
    index = np.arange(parts + 1, dtype=np.int64)
    return index * (extents // parts) + np.minimum(index, extents % parts)


@dataclass(frozen=True)
class CosmaDecomposition:
    """The complete COSMA decomposition for a problem instance.

    Algorithm 1's decomposition is three 1-D splits plus two ownership splits
    per k-layer, and that is what is stored: O(pm + pn + pk (pm + pn))
    boundaries, whatever ``p`` is.  A decomposition is memoized and shared by
    every run of its scenario, so it holds no per-rank object.
    """

    m: int
    n: int
    k: int
    p: int
    s: int
    grid: ProcessorGrid
    idle_ranks: tuple[int, ...]
    step_size: int
    num_steps: int
    #: Boundaries of the ``pm`` / ``pn`` / ``pk`` parts of the i / j / k axes
    #: (``parts + 1`` increasing offsets each).  Like the ownership splits
    #: below they are a function of the fields above, so they stay out of
    #: ``==`` and ``repr``.
    i_bounds: np.ndarray = field(compare=False, repr=False)
    j_bounds: np.ndarray = field(compare=False, repr=False)
    k_bounds: np.ndarray = field(compare=False, repr=False)
    #: ``a_bounds[kk]``: layer ``kk``'s k-range cut into the ``pn`` slices of
    #: the local A panel that the ranks of a j-fiber own (rank ``pj`` owns
    #: slice ``pj`` and broadcasts it); ``b_bounds[kk]``: the ``pm`` slices of
    #: the B panel along the i-fiber.  Absolute k offsets.
    a_bounds: np.ndarray = field(compare=False, repr=False)
    b_bounds: np.ndarray = field(compare=False, repr=False)

    @property
    def p_used(self) -> int:
        return self.grid.p_used

    def input_layouts(self) -> tuple[Layout, Layout]:
        """The blocked input layouts of A and B as ownership tables.

        Rank ``(pi * pn + pj) * pk + kk`` owns A's rows ``i_bounds[pi:pi + 2]``
        x columns ``a_bounds[kk, pj:pj + 2]``, and B's rows
        ``b_bounds[kk, pi:pi + 2]`` x columns ``j_bounds[pj:pj + 2]``: both
        additive, so A's k axis is ``a_bounds`` flattened over ``(kk, pj)`` and
        B's ``b_bounds`` flattened over ``(kk, pi)``.
        """
        pm, pn, pk = self.grid
        layer = np.arange(pk, dtype=np.int64)[:, None]
        a = Layout(
            row_bounds=self.i_bounds,
            row_owner=np.arange(pm, dtype=np.int64) * (pn * pk),
            col_bounds=np.append(self.a_bounds[:, :-1].ravel(), self.k),
            col_owner=(np.arange(pn, dtype=np.int64) * pk + layer).ravel(),
        )
        b = Layout(
            row_bounds=np.append(self.b_bounds[:, :-1].ravel(), self.k),
            row_owner=(np.arange(pm, dtype=np.int64) * (pn * pk) + layer).ravel(),
            col_bounds=self.j_bounds,
            col_owner=np.arange(pn, dtype=np.int64) * pk,
        )
        return a, b


def build_decomposition(
    m: int,
    n: int,
    k: int,
    p: int,
    s: int,
    max_idle_fraction: float = 0.03,
    grid: ProcessorGrid | None = None,
    step_size: int | None = None,
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
    step_size:
        Optional explicit communication step (outer products per round):
        SUMMA's panel width, 2.5D's whole layer.  When omitted, the largest
        step whose panels fit in ``s`` next to the C block is used.

    The result is memoized on ``(m, n, k, p, s, grid, step_size)`` with the
    grid resolved, so a plan and the runs it feeds share one decomposition.
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

    if step_size is not None:
        step_size = check_positive_int(step_size, "step_size")
    return _decompose(m, n, k, p, s, grid, step_size)


# As deep as the plan memo: a campaign's pruning pass plans every request
# before any runs, so each run (in process, or in a worker forked after that
# pass) finds the decomposition its plan built.  An entry is the boundary
# arrays only -- no per-rank objects are stored on it.
@lru_cache(maxsize=4096)
def _decompose(
    m: int, n: int, k: int, p: int, s: int, grid: ProcessorGrid, step_size: int | None
) -> CosmaDecomposition:
    """The decomposition of one problem on one fitted grid, memoized.

    Planning and every run of a scenario ask for the same (frozen) value;
    :func:`repro.algorithms.plan_cache_clear` drops the memo (through
    :func:`decomposition_cache_clear`) together with the plans built from it.
    """
    i_bounds = _split_bounds(m, grid.pm)
    j_bounds = _split_bounds(n, grid.pn)
    k_bounds = _split_bounds(k, grid.pk)

    # Latency-minimizing communication step: with lm x ln partial results
    # resident, 2 * step * max(lm, ln) extra words must fit in memory.
    lm0 = int(i_bounds[1])
    ln0 = int(j_bounds[1])
    lk0 = int(k_bounds[1])
    if step_size is None:
        free_words = s - lm0 * ln0
        if free_words >= (lm0 + ln0) * lk0:
            step_size = lk0
        else:
            step_size = max(1, free_words // (lm0 + ln0))
    num_steps = max(1, -(-lk0 // step_size))

    # Ownership: every layer's k extent is split across the pn ranks of a
    # j fiber for A and, symmetrically, across the pm ranks of an i fiber for B.
    layer_extents = np.diff(k_bounds)
    layer_starts = k_bounds[:-1, None]
    return CosmaDecomposition(
        m=m,
        n=n,
        k=k,
        p=p,
        s=s,
        grid=grid,
        idle_ranks=tuple(range(grid.p_used, p)),
        step_size=step_size,
        num_steps=num_steps,
        i_bounds=i_bounds,
        j_bounds=j_bounds,
        k_bounds=k_bounds,
        a_bounds=layer_starts + _split_bounds(layer_extents, grid.pn),
        b_bounds=layer_starts + _split_bounds(layer_extents, grid.pm),
    )


def decomposition_cache_clear() -> None:
    """Drop every memoized decomposition."""
    _decompose.cache_clear()
