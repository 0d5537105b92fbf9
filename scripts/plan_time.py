#!/usr/bin/env python3
"""Cold planning times: COSMA's grid fit and plan at paper scale.

    python scripts/plan_time.py                           (make plan-time)

Prints the best of :data:`REPEATS` cold calls of

* ``fit_ranks`` at 8192^3 on p = 4096, 16384^3 on p = 18,432 and 32768^3 on
  p = 65,536 (S = 101,000, COSMA's delta), and COSMA's ``plan()`` there (the
  fit, the decomposition and the closed-form count), every memo dropped
  before each call;
* the cold COSMA plan pass over the ``grid240`` campaign's 48 points, as the
  campaign's pruning pass plans them.

Asserts no timing: the seconds depend on the machine.  Run it with
``PYTHONPATH=src`` (the Makefile sets it).
"""

from __future__ import annotations

import time

from repro.algorithms import cosma_idle_fraction, get_algorithm, plan_cache_clear
from repro.core.grid import fit_ranks
from repro.sweeps import SweepSpec
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

REPEATS = 10
PAPER_POINTS = ((8192, 4096), (16384, 18_432), (32768, 65_536))
MEMORY_WORDS = 101_000


def best_cold(call) -> float:
    """Seconds of the fastest of :data:`REPEATS` calls, each after every
    plan, decomposition and CARMA memo is dropped."""
    best = float("inf")
    for _ in range(REPEATS):
        plan_cache_clear()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def grid240_cosma() -> list[Scenario]:
    spec = SweepSpec(
        name="grid240", algorithms=("COSMA",),
        families=("square", "largeK", "largeM", "flat"), regimes=("limited", "extra"),
        p_values=(16, 64, 144, 256, 576, 1024), memory_words=2048, mode="volume", seed=0,
    )
    return [request.scenario for request in spec.expand()]


def main() -> None:
    cosma = get_algorithm("COSMA")
    print(f"best of {REPEATS} cold calls, S = {MEMORY_WORDS:,}")
    for side, p in PAPER_POINTS:
        scenario = Scenario(name=f"square-paper-p{p}", shape=square_shape(side), p=p,
                            memory_words=MEMORY_WORDS, regime="limited")
        fit_s = best_cold(lambda: fit_ranks(side, side, side, p, max_idle_fraction=cosma_idle_fraction(p),
                                            memory_words=MEMORY_WORDS))
        plan_s = best_cold(lambda: cosma.plan(scenario))
        print(f"{side}^3 p={p:<6} fit_ranks {1e3 * fit_s:8.1f} ms   plan() {1e3 * plan_s:8.1f} ms   "
              f"grid {cosma.plan(scenario).grid}")
    scenarios = grid240_cosma()
    pass_s = best_cold(lambda: [cosma.plan(scenario) for scenario in scenarios])
    print(f"grid240: {len(scenarios)} cold COSMA plans {1e3 * pass_s:8.1f} ms")


if __name__ == "__main__":
    main()
