"""Tests for the sequential kernels (numerics + simulated memory traffic).

The Listing 1 kernels play their moves on the red-blue pebble game, whose
move rules are tested in ``tests/test_pebbling_game.py``; the naive kernel
runs on :class:`~repro.sequential.kernels.LRUCacheMemory`, tested here.
"""

import tracemalloc

import numpy as np
import pytest

from repro.pebbling.game import IllegalMoveError
from repro.pebbling.mmm_bounds import schedule_io, sequential_io_lower_bound
from repro.pebbling.mmm_schedule import SequentialMMMSchedule
from repro.sequential import naive_multiply_lru, rank1_multiply, tiled_multiply
from repro.sequential.kernels import LRUCacheMemory


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


class TestPebbleGameExecutor:
    """The tiled kernels report what the pebble game checked and counted."""

    def test_a_missed_tile_raises(self, rng, monkeypatch):
        full = SequentialMMMSchedule.tiles
        monkeypatch.setattr(SequentialMMMSchedule, "tiles", lambda self: list(full(self))[:-1])
        with pytest.raises(IllegalMoveError, match="outputs without a blue pebble"):
            tiled_multiply(rng.standard_normal((9, 5)), rng.standard_normal((5, 7)), memory_words=24)

    def test_memory_is_the_pebbles_not_the_graph(self, rng):
        # The game holds its red and blue pebbles only; the explicit
        # mk + kn + mnk-vertex graph took over 140 MiB at 48^3.
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        tracemalloc.start()
        try:
            result = tiled_multiply(a, b, memory_words=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.io == schedule_io(64, 64, 64, result.schedule.a, result.schedule.b)
        assert peak < 4 * 2**20


class TestLRUCacheMemory:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCacheMemory(0)

    def test_miss_then_hit(self):
        cache = LRUCacheMemory(2)
        assert cache.access("a") is False
        assert cache.access("a") is True
        assert cache.stats.loads == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCacheMemory(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")  # refresh a; b is now LRU
        cache.access("c")  # evicts b
        assert cache.access("a") is True
        assert cache.access("b") is False

    def test_dirty_eviction_counts_store(self):
        cache = LRUCacheMemory(1)
        cache.write("a")
        cache.access("b")  # evicts dirty a
        assert cache.stats.stores == 1

    def test_clean_eviction_no_store(self):
        cache = LRUCacheMemory(1)
        cache.access("a")
        cache.access("b")
        assert cache.stats.stores == 0

    def test_flush_writes_dirty_lines(self):
        cache = LRUCacheMemory(4)
        cache.write("a")
        cache.write("b")
        cache.access("c")
        cache.flush()
        assert cache.stats.stores == 2

    def test_flush_is_idempotent(self):
        cache = LRUCacheMemory(4)
        cache.write("a")
        cache.flush()
        cache.flush()
        assert cache.stats.stores == 1

    def test_peak_resident(self):
        cache = LRUCacheMemory(3)
        for key in "abc":
            cache.access(key)
        assert cache.stats.peak_resident == 3

    def test_working_set_within_capacity_no_capacity_misses(self):
        cache = LRUCacheMemory(8)
        for _ in range(5):
            for key in "abcd":
                cache.access(key)
        assert cache.stats.loads == 4
