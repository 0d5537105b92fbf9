"""Tests for the sequential kernels (numerics + simulated memory traffic)."""

import numpy as np
import pytest

from repro.pebbling.mmm_bounds import schedule_io, sequential_io_lower_bound
from repro.sequential import naive_multiply_lru, rank1_multiply, tiled_multiply


class TestNumericalCorrectness:
    @pytest.mark.parametrize("shape", [(8, 8, 8), (12, 7, 9), (5, 16, 3), (1, 1, 1)])
    def test_tiled_matches_numpy(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = tiled_multiply(a, b, memory_words=32)
        assert np.allclose(result.matrix, a @ b)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (10, 6, 4)])
    def test_rank1_matches_numpy(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = rank1_multiply(a, b, memory_words=24)
        assert np.allclose(result.matrix, a @ b)

    def test_naive_matches_numpy(self, rng):
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((5, 7))
        result = naive_multiply_lru(a, b, memory_words=16)
        assert np.allclose(result.matrix, a @ b)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            tiled_multiply(rng.standard_normal((4, 3)), rng.standard_normal((5, 4)), 32)

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ValueError):
            tiled_multiply(rng.standard_normal(4), rng.standard_normal((4, 4)), 32)


class TestMemoryTraffic:
    def test_tiled_io_matches_schedule_prediction(self, rng):
        a = rng.standard_normal((12, 10))
        b = rng.standard_normal((10, 14))
        result = tiled_multiply(a, b, memory_words=30)
        assert result.io == schedule_io(12, 14, 10, result.schedule.a, result.schedule.b)

    def test_tiled_io_close_to_lower_bound(self, rng):
        m = n = k = 24
        s = 64
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = tiled_multiply(a, b, memory_words=s)
        bound = sequential_io_lower_bound(m, n, k, s)
        assert result.io == schedule_io(m, n, k, result.schedule.a, result.schedule.b)
        assert bound <= result.io <= bound * 1.35

    def test_more_memory_means_less_io(self, rng):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        small = tiled_multiply(a, b, memory_words=16)
        large = tiled_multiply(a, b, memory_words=128)
        assert large.io < small.io

    def test_tiled_beats_naive_lru(self, rng):
        m = n = k = 16
        s = 40
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        scheduled = tiled_multiply(a, b, memory_words=s)
        naive = naive_multiply_lru(a, b, memory_words=s)
        assert scheduled.io < naive.io

    def test_optimal_tiles_not_worse_than_square_tiles(self, rng):
        m = n = k = 20
        s = 26
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        optimal = tiled_multiply(a, b, memory_words=s)
        square = rank1_multiply(a, b, memory_words=s)
        assert optimal.io <= square.io * 1.05

    def test_peak_resident_within_capacity(self, rng):
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((8, 12))
        result = tiled_multiply(a, b, memory_words=20)
        assert result.stats.peak_resident <= 20

    @pytest.mark.parametrize("s", [31, 64])
    def test_peak_resident_within_s_where_eq26_is_tight(self, rng, s):
        # Eq. 26's ab + a + 1 <= S admits tiles one pebble too large at these S.
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        result = tiled_multiply(a, b, memory_words=s)
        assert result.stats.peak_resident == result.schedule.required_red_pebbles() <= s

    def test_compute_count_equals_mnk(self, rng):
        m, n, k = 9, 7, 5
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = tiled_multiply(a, b, memory_words=24)
        assert result.stats.computes == m * n * k

    def test_stores_equal_output_size(self, rng):
        m, n, k = 9, 7, 5
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = tiled_multiply(a, b, memory_words=24)
        assert result.stats.stores == m * n

    def test_naive_lru_io_large_when_cache_small(self, rng):
        m = n = k = 12
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = naive_multiply_lru(a, b, memory_words=8)
        # With a tiny cache the naive order misses on nearly every B access.
        assert result.io > m * n * k / 2
