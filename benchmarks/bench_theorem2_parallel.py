"""Theorem 2 / Equation 32: parallel I/O optimality of the COSMA schedule.

Checks, across processor counts and memory sizes where ``p S`` covers the
footprint (section 6.3), that (a) the per-rank received words a COSMA run
counts are exactly what its plan predicts, (b) the busiest rank's local domain
touches at least the Theorem 2 bound (the optimality ratio is >= 1), and
(c) prints section 6.3's I/O-latency trade-off as a run counts it: COSMA on
4096^3 at p = 1024 in ``volume`` mode, S from 1x to 16x the per-rank
footprint, with each S's grid, received words, rounds and peak resident / S,
the untraced run's wall time and tracemalloc peak (machine included), and the
number of round classes a traced run posts with the tracemalloc peak of
generating them (one class delta at a time): none of these grows with the
round count, since the panel exchange is summed in closed form and its class
starts are read off the boundary arrays.
"""

import time
import tracemalloc

import numpy as np
from _common import print_rows

from repro.algorithms import get_algorithm
from repro.api import multiply, plan
from repro.core.cosma import fiber_exchange_rounds
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine import DistributedMachine, ShapeToken
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

#: The trade-off curve's problem and its memory sizes, in multiples of the
#: per-rank footprint ``(mn + mk + nk) / p``.
CURVE_SIDE, CURVE_P = 4096, 1024
CURVE_MULTIPLES = (1, 1.5, 2, 3, 4, 8, 16)


def _sweep(n=64, p_values=(4, 8, 16, 32), s_values=(1024, 4096)):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    rows = []
    for s in s_values:
        for p in p_values:
            run_plan = plan(n, n, n, processors=p, memory_words=s)
            if not run_plan.feasible:
                continue
            run = multiply(a, b, p, s)
            rows.append(
                {
                    "p": p,
                    "S": s,
                    "grid": run.grid,
                    "counted_received": run.mean_received_per_rank,
                    "planned_received": run_plan.predicted_words_per_rank,
                    "domain_io": run_plan.domain_io_words,
                    "theorem2_bound": round(run_plan.lower_bound_per_rank, 1),
                    "ratio": round(run_plan.optimality_ratio, 3),
                    "correct": run.correct and bool(np.allclose(run.matrix, a @ b)),
                }
            )
    return rows


def test_theorem2_parallel_io(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_rows("Theorem 2: COSMA's counted words and busiest domain vs the bound (64^3)", rows)
    assert len(rows) == 6
    for row in rows:
        assert row["correct"]
        assert row["counted_received"] == row["planned_received"]
        assert row["ratio"] >= 1


def _curve_run(spec, scenario, grid):
    """One untraced ``volume`` run of the curve on a fresh machine."""
    n = scenario.shape.n
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="volume")
    spec.run(ShapeToken((n, n)), ShapeToken((n, n)), scenario, machine, grid=grid)
    return machine


def _traced_classes(scenario, grid):
    """The round classes a traced run of the curve posts, and the
    tracemalloc peak of generating them (the decomposition built first)."""
    shape = scenario.shape
    decomposition = build_decomposition(shape.m, shape.n, shape.k, scenario.p,
                                        scenario.memory_words, grid=ProcessorGrid(*grid))
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="volume")
    tracemalloc.start()
    try:
        classes = sum(1 for _ in fiber_exchange_rounds(machine, decomposition, "tree"))
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return classes, peak_bytes


def _memory_curve():
    n, p = CURVE_SIDE, CURVE_P
    shape = ProblemShape(m=n, n=n, k=n, family="square")
    spec = get_algorithm("COSMA")
    rows = []
    for multiple in CURVE_MULTIPLES:
        s = int(multiple * shape.footprint_words / p)
        scenario = Scenario(name=f"sq{n}-p{p}-s{s}", shape=shape, p=p, memory_words=s,
                            regime="curve")
        run_plan = spec.plan(scenario)
        start = time.perf_counter()
        machine = _curve_run(spec, scenario, run_plan.grid)
        run_s = time.perf_counter() - start
        tracemalloc.start()
        try:
            _curve_run(spec, scenario, run_plan.grid)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        classes, traced_peak_bytes = _traced_classes(scenario, run_plan.grid)
        rows.append(
            {
                "S/footprint": multiple,
                "S": s,
                "grid": run_plan.grid,
                "counted_received": machine.counters.mean_received_per_rank(),
                "planned_received": run_plan.predicted_words_per_rank,
                "rounds": machine.counters.max_rounds(),
                "peak/S": round(machine.peak_resident_words / s, 2),
                "ratio": round(run_plan.optimality_ratio, 3),
                "run_ms": round(run_s * 1e3, 2),
                "peak_MiB": round(peak_bytes / 2**20, 2),
                "classes": classes,
                "traced_peak_MiB": round(traced_peak_bytes / 2**20, 2),
            }
        )
    return rows


def test_theorem2_memory_curve(benchmark):
    rows = benchmark.pedantic(_memory_curve, rounds=1, iterations=1)
    print_rows(f"Section 6.3: COSMA's counted I/O-latency trade-off "
               f"({CURVE_SIDE}^3, p={CURVE_P}, volume mode)", rows)
    assert len(rows) == len(CURVE_MULTIPLES)
    for row in rows:
        assert row["counted_received"] == row["planned_received"]
