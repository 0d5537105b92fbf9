"""ScaLAPACK block-cyclic ownership on a fixed 10 x 12 example.

The 2 x 3 tiles of a 10 x 12 matrix are dealt over a 2 x 2 grid; the
property test in ``test_layouts.py`` covers arbitrary shapes.
"""

import numpy as np
import pytest

from repro.layouts import Layout, block_cyclic


@pytest.fixture
def layout() -> Layout:
    return block_cyclic(rows=10, cols=12, block_rows=2, block_cols=3, grid_rows=2, grid_cols=2)


def owner_of_tile(layout: Layout, ti: int, tj: int) -> tuple[int, int]:
    """Grid position ``(pr, pc)`` of the rank that owns tile ``(ti, tj)``."""
    return divmod(int(layout.row_owner[ti] + layout.col_owner[tj]), 2)


def owner_index(layout: Layout, i: int, j: int) -> int:
    """Rank that owns element ``(i, j)``, read from the interval tables."""
    ti = int(np.searchsorted(layout.row_bounds, i, side="right")) - 1
    tj = int(np.searchsorted(layout.col_bounds, j, side="right")) - 1
    return int(layout.row_owner[ti] + layout.col_owner[tj])


class TestGeometry:
    def test_owner_cycles(self, layout):
        assert owner_of_tile(layout, 0, 0) == (0, 0)
        assert owner_of_tile(layout, 1, 0) == (1, 0)
        assert owner_of_tile(layout, 2, 0) == (0, 0)
        assert owner_of_tile(layout, 0, 3) == (0, 1)

    def test_owner_index_consistent_with_tiles(self, layout):
        for i in range(10):
            for j in range(12):
                pr, pc = owner_of_tile(layout, i // 2, j // 3)
                assert owner_index(layout, i, j) == pr * 2 + pc
