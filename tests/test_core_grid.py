"""Tests for processor-grid fitting (FitRanks, section 7.1).

The property tests hold :func:`fit_ranks` to a brute-force reference: every
grid of :func:`candidate_grids` over the delta window (one
``all_factorizations_3d`` loop per processor count), scored one grid at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import cosma_idle_fraction, get_algorithm
from repro.core.cosma import received_words
from repro.core.decomposition import build_decomposition
from repro.core.grid import (
    ProcessorGrid,
    candidate_grids,
    domain_io_words,
    fit_ranks,
    total_received_words,
)
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape


class TestProcessorGrid:
    def test_p_used(self):
        assert ProcessorGrid(2, 3, 4).p_used == 24

    def test_local_extents_round_up(self):
        grid = ProcessorGrid(3, 2, 1)
        assert grid.local_extents(10, 10, 7) == (4, 5, 7)

    def test_iterable(self):
        pm, pn, pk = ProcessorGrid(2, 3, 4)
        assert (pm, pn, pk) == (2, 3, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 1, 1)


class TestCostModel:
    def test_no_communication_on_single_rank(self):
        assert total_received_words(64, 64, 64, 1, 1, 1) == 0

    def test_2d_grid_has_no_c_reduction(self):
        # Only A and B panels are fetched: each by the 3 ranks of its fiber
        # that do not own it.
        assert total_received_words(64, 64, 64, 4, 4, 1) == 3 * 64 * 64 * 2

    def test_k_parallel_grid_pays_for_reduction(self):
        flat = total_received_words(64, 64, 64, 4, 4, 1)
        assert total_received_words(64, 64, 64, 4, 4, 2) == flat + 64 * 64

    def test_computation_per_rank(self):
        fit = fit_ranks(8, 8, 8, 8, max_idle_fraction=0.0)
        assert fit.grid.as_tuple() == (2, 2, 2)
        assert fit.computation_per_rank == 4 * 4 * 4
        assert fit.domain_io_words == domain_io_words(4, 4, 4) == 3 * 16


class TestCandidateGrids:
    def test_respects_dimension_caps(self):
        grids = candidate_grids(8, m=2, n=100, k=100)
        assert all(g.pm <= 2 for g in grids)

    def test_all_use_exact_p(self):
        for grid in candidate_grids(12, 100, 100, 100):
            assert grid.p_used == 12

    def test_empty_when_p_exceeds_all_dims(self):
        assert candidate_grids(1000, 2, 2, 2) == []


def _domain_io(grid, m, n, k):
    return domain_io_words(*grid.local_extents(m, n, k))


class TestFitRanks:
    def test_perfect_cube(self):
        fit = fit_ranks(64, 64, 64, 64, max_idle_fraction=0.0)
        assert fit.grid.p_used == 64
        assert fit.idle_ranks == 0

    def test_figure5_square_65_ranks_drops_one(self):
        """Figure 5: with p=65 and square matrices, dropping one rank to get a
        4x4x4 grid cuts the busiest domain's I/O by roughly a third."""
        fit = fit_ranks(4096, 4096, 4096, 65, max_idle_fraction=0.03)
        assert fit.grid.as_tuple() == (4, 4, 4)
        assert fit.idle_ranks == 1
        # Compare against the best 65-rank grid.
        best_65 = min(_domain_io(g, 4096, 4096, 4096) for g in candidate_grids(65, 4096, 4096, 4096))
        reduction = 1.0 - fit.domain_io_words / best_65
        assert reduction > 0.25

    def test_no_drop_allowed_uses_all_ranks(self):
        fit = fit_ranks(4096, 4096, 4096, 65, max_idle_fraction=0.0)
        assert fit.grid.p_used == 65

    def test_idle_fraction_respected(self):
        fit = fit_ranks(512, 512, 512, 100, max_idle_fraction=0.05)
        assert fit.idle_fraction <= 0.05 + 1e-9

    def test_unfavorable_prime_p(self):
        """Section 9: adding one core to a nice decomposition should not hurt.

        With p=9217 = 13 x 709 the only exact grids are terrible; the fitter
        must fall back to (nearly) the p=9216 decomposition.
        """
        fit_nice = fit_ranks(512, 512, 512, 128, max_idle_fraction=0.03)
        fit_prime = fit_ranks(512, 512, 512, 131, max_idle_fraction=0.03)  # 131 is prime
        assert fit_prime.domain_io_words <= fit_nice.domain_io_words * 1.10

    def test_tall_matrix_parallelizes_along_k(self):
        # m = n = 32, k = 16384: the only way to use 64 ranks effectively is to
        # split the k dimension.
        fit = fit_ranks(32, 32, 16384, 64, max_idle_fraction=0.03)
        assert fit.grid.pk > 1

    def test_flat_matrix_avoids_k_split(self):
        # m = n = 4096, k = 16: splitting k would force a pointless C reduction.
        fit = fit_ranks(4096, 4096, 16, 64, max_idle_fraction=0.03)
        assert fit.grid.pk == 1

    def test_single_rank_fallback(self):
        fit = fit_ranks(2, 2, 2, 1000, max_idle_fraction=0.0)
        assert fit.grid.p_used <= 8

    def test_communication_decreases_or_equal_with_idle_allowance(self):
        strict = fit_ranks(300, 300, 300, 97, max_idle_fraction=0.0)
        relaxed = fit_ranks(300, 300, 300, 97, max_idle_fraction=0.05)
        assert relaxed.domain_io_words <= strict.domain_io_words

    def test_rejects_bad_idle_fraction(self):
        with pytest.raises(ValueError):
            fit_ranks(8, 8, 8, 8, max_idle_fraction=1.5)

    def test_c_block_that_leaves_no_panel_room_is_not_chosen(self):
        """512^3 on p = 64 with S = 16384: the C block of (4, 4, 4) is exactly
        S, so no panel fits next to it; the fit takes (3, 7, 3) instead."""
        fit = fit_ranks(512, 512, 512, 64, max_idle_fraction=cosma_idle_fraction(64),
                        memory_words=16384)
        assert fit.grid.as_tuple() == (3, 7, 3)
        lm, ln, _ = fit.grid.local_extents(512, 512, 512)
        assert lm * ln + lm + ln <= 16384

    def test_paper_scale_grids(self):
        """The grids the paper-scale volume points run (S = 101,000)."""
        for side, p, grid in ((4096, 1024, (13, 13, 6)), (8192, 4096, (25, 27, 6))):
            fit = fit_ranks(side, side, side, p, max_idle_fraction=cosma_idle_fraction(p),
                            memory_words=101_000)
            assert fit.grid.as_tuple() == grid


# ---------------------------------------------------------------------------
# fit_ranks against the brute-force reference
# ---------------------------------------------------------------------------
def _fits(grid, m, n, s):
    """The rank-0 C block plus a one-wide panel step fits in S."""
    lm, ln, _ = grid.local_extents(m, n, 1)
    return lm * ln + lm + ln <= s


def reference_candidates(m, n, k, p, delta):
    """Every grid :func:`fit_ranks` considers, one ``all_factorizations_3d``
    loop per processor count, from ``p`` down: the delta window, or the
    largest smaller count that has a grid."""
    low = max(1, math.ceil(p * (1.0 - delta)))
    grids = [grid for q in range(p, low - 1, -1) for grid in candidate_grids(q, m, n, k)]
    if grids:
        return grids
    return next(candidate_grids(q, m, n, k) for q in range(low - 1, 0, -1) if candidate_grids(q, m, n, k))


def reference_fit(m, n, k, p, delta, s):
    """The first grid, in :func:`reference_candidates` order, with the least
    (domain I/O, total received words, computation, spread, -ranks used)
    among those that fit S (or among all, when none does)."""
    grids = reference_candidates(m, n, k, p, delta)
    grids = [grid for grid in grids if _fits(grid, m, n, s)] or grids

    def key(grid):
        lm, ln, lk = grid.local_extents(m, n, k)
        return (domain_io_words(lm, ln, lk), total_received_words(m, n, k, *grid), lm * ln * lk,
                max(grid.as_tuple()) - min(grid.as_tuple()), -grid.p_used)

    return min(grids, key=key)


@st.composite
def fit_problems(draw):
    m, n, k = (draw(st.integers(1, 200)) for _ in range(3))
    p = draw(st.integers(1, 300))
    footprint = m * n + m * k + n * k
    # S from 1/16 to 4x the per-rank footprint: C blocks over S and under it.
    s = max(1, footprint * draw(st.integers(1, 64)) // (16 * p))
    return m, n, k, p, s


@settings(max_examples=80, deadline=None)
@given(problem=fit_problems())
@example(problem=(591, 591, 591, 1024, 2048))  # once (2, 85, 6), whose C block 296 x 7 is over S
@example(problem=(512, 512, 512, 64, 16384))   # (4, 4, 4)'s C block is exactly S
@example(problem=(2, 2, 2, 1000, 64))          # no grid in the window: widened to 8 ranks
@example(problem=(97, 89, 83, 1, 1))           # one rank, nothing fits S
def test_fit_minimises_domain_io_under_s(problem):
    m, n, k, p, s = problem
    delta = cosma_idle_fraction(p)
    fit = fit_ranks(m, n, k, p, max_idle_fraction=delta, memory_words=s)
    candidates = reference_candidates(m, n, k, p, delta)
    fitting = [grid for grid in candidates if _fits(grid, m, n, s)]
    # The chosen grid fits S whenever any candidate does ...
    if fitting:
        assert _fits(fit.grid, m, n, s)
    # ... and touches the fewest words among the candidates that compete.
    least = min(_domain_io(grid, m, n, k) for grid in fitting or candidates)
    assert fit.domain_io_words == _domain_io(fit.grid, m, n, k) == least
    assert fit.computation_per_rank == math.prod(fit.grid.local_extents(m, n, k))
    # Every tie is broken as the reference breaks it.
    assert fit.grid == reference_fit(m, n, k, p, delta, s)
    # COSMA's plan reports that minimum as its busiest domain's I/O.
    scenario = Scenario(name="fit", shape=ProblemShape(m=m, n=n, k=k, family="fit"), p=p,
                        memory_words=s, regime="fit")
    run_plan = get_algorithm("COSMA").plan(scenario)
    if run_plan.feasible:
        assert run_plan.grid == fit.grid.as_tuple()
        assert run_plan.domain_io_words == least


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dims=st.tuples(*[st.integers(1, 200)] * 3), s=st.integers(1, 1 << 16))
def test_total_received_words_is_the_count(data, dims, s):
    """The closed form equals the summed per-rank count on ragged splits."""
    m, n, k = dims
    pm, pn, pk = (data.draw(st.integers(1, min(extent, 12))) for extent in dims)
    p = pm * pn * pk + data.draw(st.integers(0, 3))  # idle ranks receive nothing
    decomposition = build_decomposition(m, n, k, p, s, grid=ProcessorGrid(pm, pn, pk))
    counted = received_words(decomposition)
    assert counted.dtype == np.int64
    assert int(counted.sum()) == total_received_words(m, n, k, pm, pn, pk)
