"""Two-level memory hierarchy simulator (vertical I/O).

This is the machine model of the red-blue pebble game (section 2.1 of the
paper): a small-and-fast memory of ``S`` words and an unbounded slow memory.
Sequential MMM kernels in :mod:`repro.sequential` run against this model and
the number of load/store operations they perform is compared with the
Theorem 1 lower bound ``2mnk/sqrt(S) + mn``.

Two management policies are provided:

* :class:`MemoryHierarchy` -- *explicit* management: the kernel decides what to
  load, store, and evict, exactly like placing and removing red pebbles.
* :class:`LRUCacheMemory` -- *automatic* LRU management, useful to show how far
  a hardware-like cache policy is from the explicitly scheduled optimum.

Addresses are hashable tokens; the MMM kernels use tuples such as
``("A", i, k)`` or ``("C", i, j)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

Address = Hashable


@dataclass
class AccessStats:
    """Counters of slow-memory traffic produced by a kernel run."""

    loads: int = 0
    stores: int = 0
    #: number of compute operations (fused multiply-adds for MMM kernels)
    computes: int = 0
    #: peak number of words simultaneously resident in fast memory
    peak_resident: int = 0

    @property
    def io(self) -> int:
        """Total vertical I/O ``Q`` (loads + stores)."""
        return self.loads + self.stores


class FastMemoryFullError(RuntimeError):
    """Raised when a kernel tries to exceed the fast-memory capacity ``S``."""


class MemoryHierarchy:
    """Explicitly managed two-level memory.

    Parameters
    ----------
    capacity_words:
        Size ``S`` of the fast memory in words (the number of red pebbles).
    initial_slow:
        Addresses initially resident in slow memory (the CDAG inputs, i.e. the
        vertices that initially carry blue pebbles).  Loading an address that
        is in neither memory raises ``KeyError`` -- it would correspond to an
        illegal pebble-game move.

    Notes
    -----
    The class deliberately mirrors the four legal moves of the red-blue pebble
    game:

    ============== =========================================
    pebble game    :class:`MemoryHierarchy` method
    ============== =========================================
    load           :meth:`load`
    store          :meth:`store`
    compute        :meth:`compute`
    free memory    :meth:`evict`
    ============== =========================================
    """

    def __init__(self, capacity_words: int, initial_slow: Iterable[Address] = ()) -> None:
        if capacity_words <= 0:
            raise ValueError(f"fast-memory capacity must be positive, got {capacity_words}")
        self.capacity = int(capacity_words)
        self._fast: set[Address] = set()
        self._slow: set[Address] = set(initial_slow)
        self.stats = AccessStats()

    # -- pebble-game moves ------------------------------------------------
    def load(self, address: Address) -> None:
        """Load ``address`` from slow into fast memory (a blue-to-red move)."""
        if address in self._fast:
            return
        if address not in self._slow:
            raise KeyError(f"cannot load {address!r}: not present in slow memory")
        self._ensure_space(1)
        self._fast.add(address)
        self.stats.loads += 1
        self._track_peak()

    def store(self, address: Address) -> None:
        """Store ``address`` from fast into slow memory (a red-to-blue move)."""
        if address not in self._fast:
            raise KeyError(f"cannot store {address!r}: not resident in fast memory")
        if address in self._slow:
            return
        self._slow.add(address)
        self.stats.stores += 1

    def compute(self, result: Address, operands: Iterable[Address] = ()) -> None:
        """Produce ``result`` in fast memory from resident ``operands``.

        All operands must already be resident (all parents carry red pebbles).
        """
        operands = list(operands)
        missing = [op for op in operands if op not in self._fast]
        if missing:
            raise FastMemoryFullError(
                f"compute of {result!r} requires operands {missing!r} to be resident in fast memory"
            )
        if result not in self._fast:
            self._ensure_space(1)
            self._fast.add(result)
        self.stats.computes += 1
        self._track_peak()

    def evict(self, address: Address) -> None:
        """Remove a red pebble.  Data not previously stored is lost."""
        self._fast.discard(address)

    # -- helpers ----------------------------------------------------------
    def _ensure_space(self, words: int) -> None:
        if len(self._fast) + words > self.capacity:
            raise FastMemoryFullError(
                f"fast memory over capacity: {len(self._fast)} resident + {words} requested "
                f"> capacity {self.capacity}"
            )

    def _track_peak(self) -> None:
        if len(self._fast) > self.stats.peak_resident:
            self.stats.peak_resident = len(self._fast)


class LRUCacheMemory:
    """Automatically managed (LRU) two-level memory.

    ``access(address)`` touches an address: a miss loads it (evicting the
    least-recently-used resident word if necessary, counting a store if that
    word is dirty), a hit is free.  ``write(address)`` marks an address dirty.

    This models how a plain cache would execute the same instruction stream and
    lets the benchmarks contrast scheduled (pebbling-aware) against
    hardware-managed data movement.
    """

    def __init__(self, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity_words}")
        self.capacity = int(capacity_words)
        self._lru: OrderedDict[Address, bool] = OrderedDict()  # address -> dirty
        self.stats = AccessStats()

    def access(self, address: Address, write: bool = False) -> bool:
        """Touch ``address``; return True on a hit, False on a miss."""
        hit = address in self._lru
        if hit:
            self._lru.move_to_end(address)
            if write:
                self._lru[address] = True
        else:
            self.stats.loads += 1
            if len(self._lru) >= self.capacity:
                _victim, dirty = self._lru.popitem(last=False)
                if dirty:
                    self.stats.stores += 1
            self._lru[address] = write
            if len(self._lru) > self.stats.peak_resident:
                self.stats.peak_resident = len(self._lru)
        return hit

    def write(self, address: Address) -> None:
        """Write ``address`` (allocating on write miss)."""
        self.access(address, write=True)

    def compute(self) -> None:
        self.stats.computes += 1

    def flush(self) -> None:
        """Write back all dirty lines (end of kernel)."""
        for address, dirty in self._lru.items():
            if dirty:
                self.stats.stores += 1
                self._lru[address] = False
