"""Sequential I/O optimality: the red-blue pebble game in action (Theorem 1).

This example works entirely on a single simulated processor with a two-level
memory.  It:

1. builds the MMM CDAG for a small problem and pebbles it with the
   near-optimal schedule of Listing 1 in ``S`` red pebbles, verifying
   move-by-move legality;
2. compares the measured I/O against the schedule's exact count and the
   Theorem 1 lower bound ``2mnk/sqrt(S) + mn``;
3. sweeps the fast-memory size and contrasts the scheduled kernel against a
   hardware-like LRU cache, showing why explicit scheduling matters.

Run with::

    python examples/sequential_io_optimality.py
"""

from __future__ import annotations

import numpy as np

from repro.pebbling.game import PebbleGame
from repro.pebbling.mmm_bounds import schedule_io, sequential_io_lower_bound, sequential_optimality_ratio
from repro.pebbling.mmm_cdag import build_mmm_cdag
from repro.pebbling.mmm_schedule import optimal_tile_sizes, sequential_mmm_schedule
from repro.sequential import naive_multiply_lru, tiled_multiply


def pebble_small_instance() -> None:
    m = n = k = 10
    s = 20
    schedule = sequential_mmm_schedule(m, n, k, s)
    game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
    result = game.run(schedule.as_pebbling_moves())
    assert result.io == schedule_io(m, n, k, schedule.a, schedule.b)

    bound = sequential_io_lower_bound(m, n, k, s)
    print("Red-blue pebbling of a 10x10x10 MMM CDAG")
    print(f"  fast memory S            : {s} words  (tiles: {schedule.a} x {schedule.b})")
    print(f"  pebbling legal & complete: {result.complete}")
    print(f"  measured I/O (loads+stores): {result.io}  (peak {result.max_red_in_use} red pebbles)")
    print(f"  Theorem 1 lower bound      : {bound:.0f}")
    print(f"  ratio                      : {result.io / bound:.3f}\n")


def memory_sweep() -> None:
    m = n = k = 32
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))

    print("Memory sweep on a 32^3 multiplication (I/O in words)")
    print(f"{'S':>6} {'tiles':>9} {'lower bound':>12} {'scheduled':>10} {'LRU cache':>10} {'ratio':>6}")
    for s in (32, 64, 128, 256, 512):
        a_opt, b_opt = optimal_tile_sizes(s)
        scheduled = tiled_multiply(a, b, memory_words=s)
        lru = naive_multiply_lru(a, b, memory_words=s)
        bound = sequential_io_lower_bound(m, n, k, s)
        assert np.allclose(scheduled.matrix, a @ b)
        print(
            f"{s:>6} {f'{a_opt}x{b_opt}':>9} {bound:>12.0f} {scheduled.io:>10} {lru.io:>10}"
            f" {scheduled.io / bound:>6.2f}"
        )

    big = 10 * 1024 * 1024 // 8
    print(
        f"\nAt 10 MB of fast memory the feasible schedule is at most "
        f"{100 * (sequential_optimality_ratio(big) - 1):.2f}% above the lower bound "
        "where its tiles divide m and n (the paper quotes a sub-0.1% gap)."
    )


if __name__ == "__main__":
    pebble_small_instance()
    memory_sweep()
