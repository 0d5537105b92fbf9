"""Theorem 1 / Listing 1: sequential I/O optimality of the tiled schedule.

Not a figure in the paper, but the quantitative core of its theory: the
sequential schedule's exact I/O (``schedule_io``) against the
``2mnk/sqrt(S) + mn`` lower bound.  This benchmark measures the I/O of the
executable schedule on the memory-hierarchy simulator across memory sizes,
checks it against its closed form, and compares it with the bound, the simple
rank-1 (square-tile) schedule and a hardware-like LRU cache.
"""

import numpy as np
from _common import print_rows

from repro.pebbling.mmm_bounds import (
    schedule_io,
    sequential_io_lower_bound,
    sequential_optimality_ratio,
)
from repro.pebbling.mmm_schedule import optimal_tile_sizes, square_tile_size
from repro.sequential import naive_multiply_lru, rank1_multiply, tiled_multiply


def _sweep(m=32, n=32, k=32, memories=(32, 64, 128, 256, 512)):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    rows = []
    for s in memories:
        tiled = tiled_multiply(a, b, memory_words=s)
        square = rank1_multiply(a, b, memory_words=s)
        lru = naive_multiply_lru(a, b, memory_words=s)
        bound = sequential_io_lower_bound(m, n, k, s)
        side = square_tile_size(s)
        rows.append(
            {
                "S": s,
                "lower_bound": round(bound),
                "tiled_io": tiled.io,
                "predicted": schedule_io(m, n, k, *optimal_tile_sizes(s)),
                "square_tile_io": square.io,
                "square_predicted": schedule_io(m, n, k, side, side),
                "naive_lru_io": lru.io,
                "tiled_over_bound": round(tiled.io / bound, 3),
            }
        )
    return rows


def test_theorem1_sequential_io(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_rows("Theorem 1: sequential I/O vs the lower bound (32^3 MMM)", rows)
    for row in rows:
        # Both kernels count exactly their schedule's closed form.
        assert row["tiled_io"] == row["predicted"]
        assert row["square_tile_io"] == row["square_predicted"]
        # The scheduled kernel always beats the LRU cache and the ratio to the
        # bound stays bounded by a small constant at these tile sizes.
        assert row["tiled_io"] <= row["naive_lru_io"]
        assert row["tiled_over_bound"] < 2.5
    # More memory means less I/O.
    ios = [row["tiled_io"] for row in rows]
    assert ios == sorted(ios, reverse=True)


def test_theorem1_optimality_ratio_convergence(benchmark):
    def ratios():
        return {s: sequential_optimality_ratio(s) for s in (64, 1024, 1 << 14, 1 << 20, 10 * 1024 * 1024 // 8)}

    values = benchmark(ratios)
    print(
        "\nTheorem 1: upper factor sqrt(S)/(sqrt(S)-1) of the schedule's I/O over the bound"
        f" (tiles dividing m and n), per memory size: {values}"
    )
    # The paper: less than 0.1% above the bound for 10 MB of fast memory.
    assert values[10 * 1024 * 1024 // 8] < 1.001
    assert sorted(values.values(), reverse=True) == list(values.values())
