"""Tests for the two-level memory hierarchy simulator."""

import pytest

from repro.machine.memory import (
    FastMemoryFullError,
    LRUCacheMemory,
    MemoryHierarchy,
)


class TestMemoryHierarchyBasics:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(0)

    def test_load_counts(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        mem.load("x")
        assert mem.stats.loads == 1
        assert mem.stats.peak_resident == 1

    def test_load_is_idempotent(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        mem.load("x")
        mem.load("x")
        assert mem.stats.loads == 1

    def test_load_unknown_raises(self):
        mem = MemoryHierarchy(4)
        with pytest.raises(KeyError):
            mem.load("missing")

    def test_store_requires_resident(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        with pytest.raises(KeyError):
            mem.store("x")

    def test_store_counts(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        mem.load("x")
        mem.compute("y", operands=["x"])
        mem.store("y")
        assert mem.stats.stores == 1
        # y is in slow memory now: after eviction it can be loaded back.
        mem.evict("y")
        mem.load("y")
        assert mem.stats.loads == 2

    def test_store_of_value_already_in_slow_is_free(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        mem.load("x")
        mem.store("x")
        assert mem.stats.stores == 0

    def test_store_idempotent(self):
        mem = MemoryHierarchy(4, initial_slow=["x"])
        mem.load("x")
        mem.compute("y", operands=["x"])
        mem.store("y")
        mem.store("y")
        assert mem.stats.stores == 1

    def test_capacity_enforced(self):
        mem = MemoryHierarchy(2, initial_slow=["a", "b", "c"])
        mem.load("a")
        mem.load("b")
        with pytest.raises(FastMemoryFullError):
            mem.load("c")

    def test_evict_frees_space(self):
        mem = MemoryHierarchy(2, initial_slow=["a", "b", "c"])
        mem.load("a")
        mem.load("b")
        mem.evict("a")
        mem.load("c")
        assert mem.stats.loads == 3
        assert mem.stats.peak_resident == 2

    def test_compute_requires_resident_operands(self):
        mem = MemoryHierarchy(4, initial_slow=["a", "b"])
        mem.load("a")
        with pytest.raises(FastMemoryFullError):
            mem.compute("c", operands=["a", "b"])

    def test_compute_creates_result(self):
        mem = MemoryHierarchy(4, initial_slow=["a", "b"])
        mem.load("a")
        mem.load("b")
        mem.compute("c", operands=["a", "b"])
        assert mem.stats.computes == 1
        # c is resident: it can be stored.
        mem.store("c")
        assert mem.stats.stores == 1

    def test_peak_resident_tracked(self):
        mem = MemoryHierarchy(5, initial_slow=["a", "b", "c"])
        for address in "abc":
            mem.load(address)
        for address in "abc":
            mem.evict(address)
        assert mem.stats.peak_resident == 3

    def test_io_is_loads_plus_stores(self):
        mem = MemoryHierarchy(4, initial_slow=["a", "b"])
        mem.load("a")
        mem.load("b")
        mem.compute("c", operands=["a", "b"])
        mem.store("c")
        assert mem.stats.io == 3


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
