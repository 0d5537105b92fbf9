"""Sequential matrix-multiplication kernels with simulated memory traffic.

Each kernel returns both the numerical product (computed with numpy, so tests
can check exactness) and the :class:`~repro.machine.memory.AccessStats`
describing the vertical I/O the kernel's access pattern generates on a fast
memory of ``S`` words.

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

from dataclasses import dataclass

import numpy as np

from repro.machine.memory import AccessStats, LRUCacheMemory, MemoryHierarchy
from repro.pebbling.mmm_schedule import SequentialMMMSchedule, sequential_mmm_schedule
from repro.utils.validation import check_positive_int


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
    """Result of a tiled sequential multiplication run."""

    matrix: np.ndarray
    stats: AccessStats
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
    """Execute a tiled schedule: numpy arithmetic + explicit memory simulation.

    The memory moves are those of
    :meth:`~repro.pebbling.mmm_schedule.SequentialMMMSchedule.as_pebbling_moves`,
    played on a fast memory of ``S`` words.
    """
    a_matrix = np.asarray(a_matrix, dtype=np.float64)
    b_matrix = np.asarray(b_matrix, dtype=np.float64)
    m, n, k = _check_inputs(a_matrix, b_matrix)
    # Inputs start in slow memory; partial sums are created by compute moves.
    hierarchy = MemoryHierarchy(
        capacity_words=schedule.s,
        initial_slow=[("a", i, t) for i in range(m) for t in range(k)]
        + [("b", t, j) for t in range(k) for j in range(n)],
    )
    product = np.zeros((m, n))
    for rows, cols in schedule.tiles():
        i0, i1, j0, j1 = rows.start, rows.stop, cols.start, cols.stop
        for t in range(k):
            # Load the A column of this k index.
            for i in rows:
                hierarchy.load(("a", i, t))
            # Stream the B row one element at a time, updating the tile column.
            for j in cols:
                hierarchy.load(("b", t, j))
                for i in rows:
                    hierarchy.compute(("c", i, j, t), operands=[("a", i, t), ("b", t, j)])
                    if t > 0:
                        hierarchy.evict(("c", i, j, t - 1))
                hierarchy.evict(("b", t, j))
            for i in rows:
                hierarchy.evict(("a", i, t))
            # Numerical rank-1 update of the whole tile at once (vectorized).
            product[i0:i1, j0:j1] += np.outer(a_matrix[i0:i1, t], b_matrix[t, j0:j1])
        # Store and evict the finished tile.
        for i in rows:
            for j in cols:
                hierarchy.store(("c", i, j, k - 1))
                hierarchy.evict(("c", i, j, k - 1))
    return TiledRunResult(matrix=product, stats=hierarchy.stats, schedule=schedule)


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
