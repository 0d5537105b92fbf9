"""Sequential MMM kernels: numerical products with counted slow-memory traffic.

The tiled kernels play Listing 1's schedule on the red-blue pebble game
(:class:`~repro.pebbling.game.PebbleGame`, explicit management), which checks
every move and counts the I/O; the naive kernel replays its access pattern on
:class:`~repro.sequential.kernels.LRUCacheMemory` (hardware-like cache).  They
back the sequential I/O experiments (Theorem 1 benchmarks and ``repro
sequential``).
"""

from repro.sequential.kernels import (
    TiledRunResult,
    naive_multiply_lru,
    rank1_multiply,
    tiled_multiply,
)

__all__ = [
    "naive_multiply_lru",
    "rank1_multiply",
    "tiled_multiply",
    "TiledRunResult",
]
