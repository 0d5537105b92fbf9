"""Tests for the LRU-managed fast memory the naive sequential kernel runs on.

The explicitly managed memory is the red-blue pebble game itself; its move
rules are tested in ``tests/test_pebbling_game.py``.
"""

import pytest

from repro.sequential.kernels import LRUCacheMemory


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
