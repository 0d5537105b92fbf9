"""Input layouts as ownership tables (section 7.6).

The closed-form :func:`redistribution_volume` is held to a brute-force
reference that expands both layouts to element-wise owner matrices; the
grid-family ``input_layouts()`` are held to what the per-hop reference
stores and what the engines post; and the paper-scale test asks section
7.6's question -- what does COSMA cost from a ScaLAPACK block-cyclic input?
-- at the points the paper runs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import HopMachine
from oracle.grid import put_owned_blocks

from repro.algorithms import cosma_idle_fraction, get_algorithm
from repro.baselines.grid25d import grid25d_decomposition
from repro.baselines.summa import summa_decomposition
from repro.core.cosma import post_owned_words
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.layouts import Layout, block_cyclic, redistribution_volume
from repro.machine.simulator import DistributedMachine
from repro.machine.topology import PIZ_DAINT_LIKE
from repro.utils.intmath import divisors
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import rpa_water_shape, square_shape


def owners(layout: Layout) -> np.ndarray:
    """The element-wise owner matrix a layout describes."""
    return np.add.outer(np.repeat(layout.row_owner, np.diff(layout.row_bounds)),
                        np.repeat(layout.col_owner, np.diff(layout.col_bounds)))


def reference_volume(src: Layout, dst: Layout) -> int:
    """Words whose owner differs, counted element by element."""
    return int(np.count_nonzero(owners(src) != owners(dst)))


# ---------------------------------------------------------------------------
# Block-cyclic
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), block_rows=st.integers(1, 40),
       block_cols=st.integers(1, 40), grid_rows=st.integers(1, 6), grid_cols=st.integers(1, 6))
def test_block_cyclic_deals_tiles_round_robin(rows, cols, block_rows, block_cols, grid_rows, grid_cols):
    """Tile ``(ti, tj)`` belongs to grid position ``(ti % pr, tj % pc)``, row-major."""
    layout = block_cyclic(rows, cols, block_rows, block_cols, grid_rows, grid_cols)
    i, j = np.indices((rows, cols))
    expected = (i // block_rows % grid_rows) * grid_cols + j // block_cols % grid_cols
    assert layout.shape == (rows, cols)
    assert np.array_equal(owners(layout), expected)


@pytest.mark.parametrize("bad", range(6))
def test_block_cyclic_rejects_nonpositive_arguments(bad):
    args = [8, 8, 2, 2, 2, 2]
    args[bad] = 0
    with pytest.raises(ValueError):
        block_cyclic(*args)


def test_layout_rejects_malformed_tables():
    with pytest.raises(ValueError):
        Layout(np.array([1, 4]), np.array([0]), np.array([0, 4]), np.array([0]))
    with pytest.raises(ValueError):
        Layout(np.array([0, 4, 2]), np.array([0, 1]), np.array([0, 4]), np.array([0]))
    with pytest.raises(ValueError):
        Layout(np.array([0, 4]), np.array([0, 1]), np.array([0, 4]), np.array([0]))


# ---------------------------------------------------------------------------
# The closed form against the element-wise count
# ---------------------------------------------------------------------------
def grid_family_decompositions(m, n, k):
    """Small ragged grid-family decompositions of one shape: fitted (with p
    that factors badly, so idle ranks), explicit (possibly more parts than
    elements, so empty segments), SUMMA's or 2.5D's."""
    explicit = st.builds(ProcessorGrid, *(st.integers(1, 5) for _ in range(3))).map(
        lambda grid: build_decomposition(m, n, k, grid.p_used, 1 << 20, grid=grid))
    fitted = st.tuples(
        st.sampled_from([build_decomposition, summa_decomposition, grid25d_decomposition]),
        st.sampled_from([1, 2, 7, 11, 13, 17, 23, 24, 30]),
    ).map(lambda built: built[0](m, n, k, built[1], 1 << 20))
    return st.one_of(explicit, fitted)


@st.composite
def layout_pairs(draw):
    """Two layouts of A or of B, each block-cyclic (tiles from one row or
    column to larger than the matrix) or a grid-family input layout."""
    m, n, k = (draw(st.integers(1, 24)) for _ in range(3))
    operand = draw(st.integers(0, 1))

    def layout():
        if draw(st.booleans()):
            return draw(grid_family_decompositions(m, n, k)).input_layouts()[operand]
        return block_cyclic(*((m, k), (k, n))[operand],
                            *(draw(st.integers(1, 30)) for _ in range(2)),
                            *(draw(st.integers(1, 6)) for _ in range(2)))

    return layout(), layout()


@settings(max_examples=150, deadline=None)
@given(pair=layout_pairs())
def test_volume_equals_the_element_count(pair):
    src, dst = pair
    assert redistribution_volume(src, dst) == reference_volume(src, dst)


@settings(max_examples=40, deadline=None)
@given(pair=layout_pairs())
def test_volume_is_zero_on_itself_and_symmetric(pair):
    src, dst = pair
    assert redistribution_volume(src, src) == redistribution_volume(dst, dst) == 0
    assert redistribution_volume(src, dst) == redistribution_volume(dst, src)


def test_volume_rejects_different_matrices():
    with pytest.raises(ValueError):
        redistribution_volume(block_cyclic(8, 8, 2, 2, 2, 2), block_cyclic(6, 8, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# The grid family's input layout is what its engines hold
# ---------------------------------------------------------------------------
ENGINE_CASES = [
    (9, build_decomposition(12, 10, 8, 9, 4096, grid=ProcessorGrid(2, 2, 2))),
    (23, build_decomposition(13, 11, 17, 23, 4096)),
    (37, build_decomposition(13, 11, 17, 37, 4096)),
    (31, build_decomposition(5, 7, 3, 31, 4096, grid=ProcessorGrid(2, 3, 5))),
    (6, summa_decomposition(13, 9, 11, 6, 4096)),
    (11, summa_decomposition(7, 13, 5, 11, 64)),
    (20, grid25d_decomposition(12, 12, 10, 20, 64)),
    (30, grid25d_decomposition(9, 12, 14, 30, 4096)),
]


@pytest.mark.parametrize("p, decomposition", ENGINE_CASES)
def test_input_layouts_are_what_the_engines_hold(p, decomposition):
    """Every element's owner, read back from the values the per-hop
    reference stores, is the layout's; and the per-rank words are what
    ``post_owned_words`` posts."""
    m, n, k = decomposition.m, decomposition.n, decomposition.k
    a, b = np.arange(m * k).reshape(m, k), np.arange(k * n).reshape(k, n)
    machine = HopMachine(p)
    put_owned_blocks(machine, decomposition, a, b, "A", "B", "C")
    posted = DistributedMachine(p, mode="volume")
    post_owned_words(posted, decomposition, "A", "B", "C")
    for name, layout, matrix in zip("AB", decomposition.input_layouts(), (a, b)):
        stored = np.full(matrix.shape, -1)
        for rank in range(p):
            held = machine.stores[rank].get(name)
            if held is not None:
                elements = held.ravel().astype(np.int64)
                assert (stored.flat[elements] == -1).all(), "an element is stored twice"
                stored.flat[elements] = rank
        expected = owners(layout)
        assert layout.shape == matrix.shape
        assert np.array_equal(stored, expected)
        assert np.array_equal(np.bincount(expected.ravel(), minlength=p), posted._posted[name])


# ---------------------------------------------------------------------------
# Section 7.6 at paper scale
# ---------------------------------------------------------------------------
#: ``(point, shape, p, S, bound)``: the conversion of A and B from 64 x 64
#: block-cyclic tiles must stay under ``bound`` of COSMA's own received
#: words per rank.  At RPA the inputs are 429x the output, so moving them
#: once weighs more against the multiplication than on the square points.
PAPER_POINTS = [
    ("sq4096", square_shape(4096), 1024, 101_000, 0.10),
    ("sq8192", square_shape(8192), 4096, 101_000, 0.10),
    ("rpa128", rpa_water_shape(128), 18_432, PIZ_DAINT_LIKE.memory_words_per_core, 0.20),
]


def scalapack_input(rows: int, cols: int, p: int) -> Layout:
    """64 x 64 block-cyclic tiles on the most-square ``pr <= pc`` grid of ``p``."""
    pr = max(d for d in divisors(p) if d * d <= p)
    return block_cyclic(rows, cols, 64, 64, pr, p // pr)


@pytest.mark.parametrize("point, shape, p, s, bound", PAPER_POINTS, ids=[pt[0] for pt in PAPER_POINTS])
def test_conversion_from_scalapack_is_a_preprocessing_step(point, shape, p, s, bound):
    m, n, k = shape.m, shape.n, shape.k
    a_layout, b_layout = build_decomposition(
        m, n, k, p, s, max_idle_fraction=cosma_idle_fraction(p)).input_layouts()
    tracemalloc.start()
    conversion = (redistribution_volume(scalapack_input(m, k, p), a_layout)
                  + redistribution_volume(scalapack_input(k, n, p), b_layout))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 << 20  # O(segments): no m x k or k x n owner matrix
    scenario = Scenario(point, shape, p, s, "limited")
    words = {name: get_algorithm(name).plan(scenario).predicted_words_per_rank
             for name in ("COSMA", "ScaLAPACK", "CTF", "Cannon")}
    assert conversion / p < bound * words["COSMA"]
    for baseline in ("ScaLAPACK", "CTF", "Cannon"):
        assert words["COSMA"] + conversion / p < words[baseline]
