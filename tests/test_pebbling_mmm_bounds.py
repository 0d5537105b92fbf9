"""Tests for the MMM I/O bounds (Theorems 1 and 2)."""

import math

import pytest

from repro.pebbling.mmm_bounds import (
    hong_kung_asymptotic_bound,
    irony_toledo_tiskin_bound,
    parallel_io_lower_bound,
    schedule_io,
    sequential_io_lower_bound,
    sequential_optimality_ratio,
    smith_vandegeijn_bound,
)
from repro.pebbling.mmm_schedule import optimal_tile_sizes


class TestSequentialBound:
    def test_formula(self):
        assert sequential_io_lower_bound(10, 10, 10, 25) == pytest.approx(2 * 1000 / 5 + 100)

    def test_monotone_in_problem_size(self):
        assert sequential_io_lower_bound(20, 20, 20, 64) > sequential_io_lower_bound(10, 10, 10, 64)

    def test_decreasing_in_memory(self):
        assert sequential_io_lower_bound(64, 64, 64, 256) < sequential_io_lower_bound(64, 64, 64, 64)

    def test_tighter_than_hong_kung(self):
        assert sequential_io_lower_bound(32, 32, 32, 64) > hong_kung_asymptotic_bound(32, 32, 32, 64)

    def test_tighter_than_smith_vandegeijn(self):
        # The paper improves the additive term: 2mnk/sqrt(S)+mn > 2mnk/sqrt(S)-2S.
        assert sequential_io_lower_bound(32, 32, 32, 64) > smith_vandegeijn_bound(32, 32, 32, 64)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sequential_io_lower_bound(0, 1, 1, 1)


class TestNearOptimalSequential:
    def test_above_lower_bound(self):
        a, b = optimal_tile_sizes(100)
        assert schedule_io(64, 64, 64, a, b) >= sequential_io_lower_bound(64, 64, 64, 100)

    def test_ratio_formula(self):
        s = 100
        ratio = sequential_optimality_ratio(s)
        assert ratio == pytest.approx(math.sqrt(s) / (math.sqrt(s) - 1))

    def test_ratio_approaches_one(self):
        # For 10 MB of fast memory (1.25M words) the gap is below 0.1%.
        s = 10 * 1024 * 1024 // 8
        assert sequential_optimality_ratio(s) < 1.001

    def test_ratio_always_above_one(self):
        for s in [4, 16, 100, 10_000]:
            assert sequential_optimality_ratio(s) > 1.0

    def test_greedy_schedule_io_with_square_tiles(self):
        # a = b = sqrt(S) dividing m and n gives exactly the lower bound.
        m = n = k = 100
        s = 400
        a = b = int(math.sqrt(s))
        assert schedule_io(m, n, k, a, b) == 2 * m * n * k / math.sqrt(s) + m * n

    def test_schedule_io_counts_ragged_tiles(self):
        # 10 = 3 + 3 + 3 + 1 rows and 10 = 5 + 5 columns: 4 x 2 tiles.
        assert schedule_io(10, 10, 10, 3, 5) == 10 * (10 * 2 + 10 * 4) + 100
        # Tiles larger than the matrix are clipped to it.
        assert schedule_io(2, 3, 5, 7, 9) == schedule_io(2, 3, 5, 2, 3) == 5 * (2 + 3) + 6


class TestParallelBound:
    def test_limited_memory_branch(self):
        m = n = k = 1024
        p, s = 64, 4096
        # mnk / S^1.5 ~ 4096 > p: limited regime, first branch applies.
        expected = 2 * m * n * k / (p * math.sqrt(s)) + s
        assert parallel_io_lower_bound(m, n, k, p, s) == pytest.approx(expected)

    def test_extra_memory_branch(self):
        m = n = k = 64
        p, s = 512, 1 << 20
        expected = 3 * (m * n * k / p) ** (2 / 3)
        assert parallel_io_lower_bound(m, n, k, p, s) == pytest.approx(expected)

    def test_decreasing_in_p(self):
        assert parallel_io_lower_bound(256, 256, 256, 64, 1024) <= parallel_io_lower_bound(
            256, 256, 256, 16, 1024
        )

    def test_reduces_towards_sequential_for_p1(self):
        m = n = k = 128
        s = 256
        parallel = parallel_io_lower_bound(m, n, k, 1, s)
        sequential = sequential_io_lower_bound(m, n, k, s)
        # Same leading term 2mnk/sqrt(S); additive terms differ (S vs mn).
        assert parallel == pytest.approx(sequential - m * n + s)

    def test_tighter_than_irony_et_al(self):
        m = n = k = 512
        p, s = 64, 2048
        assert parallel_io_lower_bound(m, n, k, p, s) > irony_toledo_tiskin_bound(m, n, k, p, s)


class TestMemoryHelpers:
    def test_regime_boundary_consistency(self):
        # At the boundary p = mnk / S^(3/2) the two branches of the bound coincide:
        # p is the last limited-memory count, p + 1 the first extra-memory one.
        s = 256
        m = n = k = 256
        p = int(m * n * k / s ** 1.5)
        limited = parallel_io_lower_bound(m, n, k, p, s)
        cubic = parallel_io_lower_bound(m, n, k, p + 1, s)
        assert limited == pytest.approx(2 * m * n * k / (p * math.sqrt(s)) + s)
        assert cubic == pytest.approx(3 * (m * n * k / (p + 1)) ** (2 / 3))
        assert limited == pytest.approx(cubic, rel=0.01)
