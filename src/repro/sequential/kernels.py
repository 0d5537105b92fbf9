"""Sequential matrix-multiplication kernels with counted memory traffic.

Each kernel returns both the numerical product (computed with numpy, so tests
can check exactness) and the :class:`~repro.pebbling.game.PebblingResult`
describing the vertical I/O of its schedule on a fast memory of ``S`` words.
The tiled kernels issue no move of their own: they play their
:class:`~repro.pebbling.mmm_schedule.SequentialMMMSchedule` on
:class:`~repro.pebbling.game.PebbleGame`, which checks every move against the
MMM CDAG, and report what the game counted.  The naive kernel replays its
access pattern on :class:`LRUCacheMemory`, a hardware-like cache.

The interesting comparison (regenerated by ``benchmarks/bench_theorem1_sequential.py``
and printed by ``repro sequential``, the Theorem 1 command):

* :func:`naive_multiply_lru` -- untiled triple loop under an LRU cache,
  ``Q ~ mnk`` once the matrices exceed the cache;
* :func:`rank1_multiply` -- the rank-1 update schedule with square tiles
  ``a = b = sqrt(S+1)-1`` (first construction of section 5.2.7);
* :func:`tiled_multiply` -- Listing 1 with the optimal rectangular tiles of
  Equation 26; its I/O is exactly
  :func:`~repro.pebbling.mmm_bounds.schedule_io`, within
  :func:`~repro.pebbling.mmm_bounds.sequential_optimality_ratio` of
  Theorem 1 where the tiles divide ``m`` and ``n``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.pebbling.game import IllegalMoveError, PebbleGame, PebblingResult
from repro.pebbling.mmm_cdag import build_mmm_cdag
from repro.pebbling.mmm_schedule import SequentialMMMSchedule, sequential_mmm_schedule
from repro.utils.validation import check_positive_int

Address = Hashable


class LRUCacheMemory:
    """Automatically managed (LRU) two-level memory.

    ``access(address)`` touches an address: a miss loads it (evicting the
    least-recently-used resident word if necessary, counting a store if that
    word is dirty), a hit is free.  ``write(address)`` marks an address dirty.

    This models how a plain cache would execute the naive instruction stream
    and lets the benchmarks contrast scheduled (pebbling-aware) against
    hardware-managed data movement: a miss is a load, a dirty eviction a
    store, and the peak is the resident words.
    """

    def __init__(self, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity_words}")
        self.capacity = int(capacity_words)
        self._lru: OrderedDict[Address, bool] = OrderedDict()  # address -> dirty
        self.stats = PebblingResult()

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


def _check_inputs(a_matrix: np.ndarray, b_matrix: np.ndarray) -> tuple[int, int, int]:
    a_matrix = np.asarray(a_matrix)
    b_matrix = np.asarray(b_matrix)
    if a_matrix.ndim != 2 or b_matrix.ndim != 2:
        raise ValueError("inputs must be 2-D matrices")
    if a_matrix.shape[1] != b_matrix.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}"
        )
    m, k = a_matrix.shape
    _, n = b_matrix.shape
    return m, n, k


@dataclass
class TiledRunResult:
    """Result of a sequential multiplication run: the product and its I/O."""

    matrix: np.ndarray
    stats: PebblingResult
    schedule: SequentialMMMSchedule | None = None

    @property
    def io(self) -> int:
        return self.stats.io


def naive_multiply_lru(
    a_matrix: np.ndarray, b_matrix: np.ndarray, memory_words: int
) -> TiledRunResult:
    """Naive ``i, j, t`` triple loop under an LRU-managed fast memory.

    The numerical result is computed with a single numpy matmul; the memory
    traffic is obtained by replaying the naive access pattern (touch ``A[i,t]``,
    ``B[t,j]``, read-modify-write ``C[i,j]``) against an LRU cache of
    ``memory_words`` words.
    """
    m, n, k = _check_inputs(a_matrix, b_matrix)
    memory_words = check_positive_int(memory_words, "memory_words")
    cache = LRUCacheMemory(memory_words)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                cache.access(("a", i, t))
                cache.access(("b", t, j))
                cache.access(("c", i, j), write=True)
                cache.compute()
    cache.flush()
    product = np.asarray(a_matrix, dtype=np.float64) @ np.asarray(b_matrix, dtype=np.float64)
    return TiledRunResult(matrix=product, stats=cache.stats, schedule=None)


def _run_tiled(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    schedule: SequentialMMMSchedule,
) -> TiledRunResult:
    """Play ``schedule`` on the pebble game in ``S`` red pebbles, then multiply tile by tile.

    The I/O is what :class:`~repro.pebbling.game.PebbleGame` checked and
    counted on the MMM CDAG; a run that is not a complete calculation raises.
    The product is one GEMM per output tile of the schedule.
    """
    a_matrix = np.asarray(a_matrix, dtype=np.float64)
    b_matrix = np.asarray(b_matrix, dtype=np.float64)
    m, n, k = _check_inputs(a_matrix, b_matrix)
    game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=schedule.s)
    schedule.play(game)
    stats = game.finish()
    if not stats.complete:
        raise IllegalMoveError(f"schedule left {len(stats.missing_outputs)} outputs without a blue pebble")
    product = np.zeros((m, n))
    for rows, cols in schedule.tiles():
        i, j = slice(rows.start, rows.stop), slice(cols.start, cols.stop)
        product[i, j] = a_matrix[i] @ b_matrix[:, j]
    return TiledRunResult(matrix=product, stats=stats, schedule=schedule)


def tiled_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    memory_words: int,
) -> TiledRunResult:
    """Listing 1: near I/O optimal tiled multiplication with rectangular tiles."""
    m, n, k = _check_inputs(a_matrix, b_matrix)
    schedule = sequential_mmm_schedule(m, n, k, memory_words, tile="optimal")
    return _run_tiled(a_matrix, b_matrix, schedule)


def rank1_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    memory_words: int,
) -> TiledRunResult:
    """Square-tile (``a = b = sqrt(S+1)-1``) rank-1 update schedule."""
    m, n, k = _check_inputs(a_matrix, b_matrix)
    schedule = sequential_mmm_schedule(m, n, k, memory_words, tile="square")
    return _run_tiled(a_matrix, b_matrix, schedule)
