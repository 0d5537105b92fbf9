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
grid coordinates.  There is no per-rank object.  The arrays a run derives
from the boundaries -- block sides, ownership widths, the words each rank
owns, the whole panel exchange's sums -- are computed once per decomposition
and kept on it, read-only, like the boundaries themselves.  The initial ownership of A and B,
as :class:`~repro.layouts.Layout` tables, is
:meth:`CosmaDecomposition.input_layouts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made read-only, so an in-place write raises."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class CosmaDecomposition:
    """The complete COSMA decomposition for a problem instance.

    Algorithm 1's decomposition is three 1-D splits plus two ownership splits
    per k-layer, and that is what is stored: O(pm + pn + pk (pm + pn))
    boundaries, whatever ``p`` is.  A decomposition is memoized and shared by
    every run of its scenario, so it holds no per-rank object.

    Its boundary arrays are read-only, and what a run derives from them is a
    cached property, computed on first use and kept (read-only) for as long
    as the decomposition lives: a plan and every run of its scenario read the
    same copy.  ``dataclasses.replace`` yields a fresh object with nothing
    cached.
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

    def __post_init__(self) -> None:
        _read_only(self.i_bounds, self.j_bounds, self.k_bounds, self.a_bounds, self.b_bounds)

    @property
    def p_used(self) -> int:
        return self.grid.p_used

    @cached_property
    def extents(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lm, ln, lk)``: the block sides of the ``pm`` / ``pn`` / ``pk``
        parts of the i / j / k axes."""
        return _read_only(np.diff(self.i_bounds), np.diff(self.j_bounds), np.diff(self.k_bounds))

    @cached_property
    def owned_widths(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a_width, b_width)``: the k-widths of every layer's A slices
        ``(pk, pn)`` and B slices ``(pk, pm)``."""
        return _read_only(np.diff(self.a_bounds), np.diff(self.b_bounds))

    @cached_property
    def c_block_words(self) -> np.ndarray:
        """Words of every ``(pi, pj)`` block of C, row-major."""
        lm, ln, _ = self.extents
        return _read_only(np.multiply.outer(lm, ln).ravel())[0]

    @cached_property
    def owned_words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Words of A, of B and of C every used rank holds before the
        exchange, in rank order: its A and B ownership slices and its C block
        (the ``pk`` partial blocks of a k fiber count once per rank)."""
        lm, ln, _ = self.extents
        a_width, b_width = self.owned_widths
        # Ranks are row-major in (pi, pj, kk): the A split depends on (pj, kk)
        # only, the B split on (pi, kk) only.
        return _read_only(
            (lm[:, None, None] * a_width.T[None, :, :]).ravel(),
            (b_width.T[:, None, :] * ln[None, :, None]).ravel(),
            np.repeat(self.c_block_words, self.grid.pk),
        )

    def exchange_sums(self, first: int = 0, stop: int | None = None) -> tuple[np.ndarray, ...]:
        """The sums of rounds ``[first, stop)`` of the panel exchange (all of
        them by default), in closed form from the boundary arrays: ``held``
        (layer) the width of the window's chunks that both the A and the B
        owners hold (what a rank multiplies), ``w_a`` / ``w_b`` (layer, owner)
        the chunks' overlap widths with each A / B ownership slice, ``n_a`` /
        ``n_b`` (layer, owner) how many of the chunks overlap the slice.

        Round ``r`` moves each layer's chunk ``[k_lo + r step, k_lo + (r + 1)
        step)`` clamped to the layer, so the window's chunks partition the
        layer's k-range ``[lo_k, hi_k)`` from ``k_lo + first step`` to ``k_lo +
        stop step`` (clamped): a slice's overlaps sum to the slice clamped to
        that range, the chunks that overlap the clamped slice ``[lo, hi)`` are
        those from ``(lo - k_lo) // step`` to ``(hi - 1 - k_lo) // step``, and
        the multiplied width is that range clamped to the k-range both the A
        and the B owners hold.  The whole exchange's sums are
        :attr:`exchange_totals`."""
        k_lo, k_hi = self.k_bounds[:-1, None], self.k_bounds[1:, None]
        step = self.step_size
        lo_k = np.minimum(k_lo + first * step, k_hi)
        hi_k = k_hi if stop is None else np.minimum(k_lo + stop * step, k_hi)

        def overlaps(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            lo = np.maximum(bounds[:, :-1], lo_k)  # (layer, owner)
            hi = np.minimum(bounds[:, 1:], hi_k)
            width = np.maximum(hi - lo, 0)
            chunks = np.where(width > 0, (hi - 1 - k_lo) // step - (lo - k_lo) // step + 1, 0)
            return width, chunks

        (w_a, n_a), (w_b, n_b) = overlaps(self.a_bounds), overlaps(self.b_bounds)
        held_lo = np.maximum.reduce((lo_k[:, 0], self.a_bounds[:, 0], self.b_bounds[:, 0]))
        held_hi = np.minimum.reduce((hi_k[:, 0], self.a_bounds[:, -1], self.b_bounds[:, -1]))
        return np.maximum(held_hi - held_lo, 0), w_a, w_b, n_a, n_b

    @cached_property
    def exchange_totals(self) -> tuple[np.ndarray, ...]:
        """:meth:`exchange_sums` of the whole exchange, computed once: the
        plan's rounds and every untraced run read them."""
        return _read_only(*self.exchange_sums())

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
# pass) finds the decomposition its plan built, with the arrays the plan
# derived from it (its cached properties).  An entry is the boundary arrays
# and those -- no per-rank objects.  Over the 192 grid-family points of the
# grid240 campaign (186 entries) the plans derive 0.35 MiB, and the runs'
# owned-words vectors bring it to 2.2 MiB.  Only the reuse needs fork: a
# worker that inherits nothing builds the same values itself.
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
