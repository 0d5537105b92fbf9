"""Input layouts as ownership tables, and the cost of converting between them.

Section 7.6: COSMA integrates with ScaLAPACK's data format -- inputs that
arrive block-cyclic are converted to COSMA's blocked layout in a
preprocessing step.  Both layouts, and every grid-family decomposition's
input layout (:meth:`repro.core.decomposition.CosmaDecomposition.input_layouts`),
are *additive* ownership tables: the rows are cut into intervals, each with an
owner term, the columns likewise, and element ``(i, j)`` in row segment ``r``
and column segment ``c`` belongs to rank ``row_owner[r] + col_owner[c]``.

A layout is therefore four int64 arrays, O(segments) whatever the matrix size,
and :func:`redistribution_volume` counts the words a conversion moves in
O(segments) time without ever forming an element-wise owner matrix -- which
is what lets section 7.6's question be asked at the RPA point, where A alone
has 6.5e10 elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.intmath import ceil_div
from repro.utils.validation import check_positive_int


@dataclass(frozen=True, eq=False)
class Layout:
    """Which rank owns which (row interval) x (column interval) of a matrix.

    ``row_bounds`` / ``col_bounds`` are non-decreasing offsets from 0 to the
    matrix extent (a repeated offset is an empty segment); ``row_owner`` /
    ``col_owner`` hold one owner term per segment, and the owner of an element
    is the sum of its row and column terms.
    """

    row_bounds: np.ndarray
    row_owner: np.ndarray
    col_bounds: np.ndarray
    col_owner: np.ndarray

    def __post_init__(self) -> None:
        for axis in ("row", "col"):
            bounds = np.asarray(getattr(self, f"{axis}_bounds"), dtype=np.int64)
            owner = np.asarray(getattr(self, f"{axis}_owner"), dtype=np.int64)
            if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 or (np.diff(bounds) < 0).any():
                raise ValueError(f"{axis}_bounds must rise from 0 to the extent, got {bounds}")
            if owner.shape != (bounds.size - 1,):
                raise ValueError(f"{axis}_owner needs one entry per segment ({bounds.size - 1})")
            object.__setattr__(self, f"{axis}_bounds", bounds)
            object.__setattr__(self, f"{axis}_owner", owner)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.row_bounds[-1]), int(self.col_bounds[-1]))


def block_cyclic(
    rows: int, cols: int, block_rows: int, block_cols: int, grid_rows: int, grid_cols: int
) -> Layout:
    """ScaLAPACK's block-cyclic layout of a ``rows x cols`` matrix.

    ``block_rows x block_cols`` tiles (ScaLAPACK's ``MB x NB``, the last row /
    column of tiles clipped at the matrix edge) are dealt cyclically over a
    ``grid_rows x grid_cols`` process grid: tile ``(ti, tj)`` goes to grid
    position ``(ti mod grid_rows, tj mod grid_cols)``, rank
    ``(ti mod grid_rows) * grid_cols + tj mod grid_cols`` (row-major grid).
    """
    rows, cols, block_rows, block_cols, grid_rows, grid_cols = (
        check_positive_int(value, name) for value, name in (
            (rows, "rows"), (cols, "cols"), (block_rows, "block_rows"),
            (block_cols, "block_cols"), (grid_rows, "grid_rows"), (grid_cols, "grid_cols")))
    tile_rows = np.arange(ceil_div(rows, block_rows), dtype=np.int64)
    tile_cols = np.arange(ceil_div(cols, block_cols), dtype=np.int64)
    return Layout(
        row_bounds=np.append(tile_rows * block_rows, rows),
        row_owner=(tile_rows % grid_rows) * grid_cols,
        col_bounds=np.append(tile_cols * block_cols, cols),
        col_owner=tile_cols % grid_cols,
    )


def _refine(src_bounds, src_owner, dst_bounds, dst_owner):
    """The common refinement of two splits of one axis: every refined
    segment's length and its owner term under ``src`` and under ``dst``."""
    bounds = np.union1d(src_bounds, dst_bounds)
    starts = bounds[:-1]
    # The segment holding a start is the last one starting at or before it,
    # which skips the empty segments a repeated bound makes.
    src_at = src_owner[np.searchsorted(src_bounds, starts, side="right") - 1]
    dst_at = dst_owner[np.searchsorted(dst_bounds, starts, side="right") - 1]
    return np.diff(bounds), src_at, dst_at


def redistribution_volume(src: Layout, dst: Layout) -> int:
    """Words that change owner when a matrix moves from ``src`` to ``dst``.

    This is the least traffic any conversion can have: each element whose
    owner changes moves exactly once.  On the refined segments an element
    stays iff ``src_row + src_col == dst_row + dst_col``, that is iff
    ``src_row - dst_row == dst_col - src_col``; so the staying words are the
    dot product of the row lengths histogrammed by the first difference and
    the column lengths histogrammed by the second.
    """
    if src.shape != dst.shape:
        raise ValueError(f"layouts describe different matrices: {src.shape} vs {dst.shape}")
    row_len, row_src, row_dst = _refine(src.row_bounds, src.row_owner, dst.row_bounds, dst.row_owner)
    col_len, col_src, col_dst = _refine(src.col_bounds, src.col_owner, dst.col_bounds, dst.col_owner)
    row_key = row_src - row_dst
    col_key = col_dst - col_src
    low = min(row_key.min(), col_key.min())
    size = int(max(row_key.max(), col_key.max()) - low + 1)
    row_hist, col_hist = np.zeros((2, size), dtype=np.int64)
    np.add.at(row_hist, row_key - low, row_len)
    np.add.at(col_hist, col_key - low, col_len)
    rows, cols = src.shape
    return rows * cols - int(row_hist @ col_hist)
