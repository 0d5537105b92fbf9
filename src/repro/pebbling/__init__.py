"""Red-blue pebble game, the MMM CDAG and Theorem 1 as one checked chain.

This subpackage implements the sequential theory of sections 2 and 5 of the
paper, and the parallel bound of section 6:

* :mod:`repro.pebbling.cdag` -- computational DAGs.
* :mod:`repro.pebbling.game` -- a validated red-blue pebble-game executor that
  measures the I/O (loads + stores) of a pebbling.
* :mod:`repro.pebbling.mmm_cdag` -- the MMM CDAG.
* :mod:`repro.pebbling.mmm_schedule` -- the near-optimal sequential MMM
  schedule (Listing 1), its tiles and its pebble-game moves.
* :mod:`repro.pebbling.mmm_bounds` -- the schedule's exact I/O, Theorems 1
  and 2 and the factor between the schedule and Theorem 1.
"""

from repro.pebbling.cdag import CDAG
from repro.pebbling.game import IllegalMoveError, PebbleGame, PebblingResult
from repro.pebbling.mmm_bounds import (
    parallel_io_lower_bound,
    schedule_io,
    sequential_io_lower_bound,
)
from repro.pebbling.mmm_cdag import build_mmm_cdag
from repro.pebbling.mmm_schedule import optimal_tile_sizes, sequential_mmm_schedule

__all__ = [
    "CDAG",
    "PebbleGame",
    "PebblingResult",
    "IllegalMoveError",
    "build_mmm_cdag",
    "optimal_tile_sizes",
    "sequential_mmm_schedule",
    "schedule_io",
    "sequential_io_lower_bound",
    "parallel_io_lower_bound",
]
