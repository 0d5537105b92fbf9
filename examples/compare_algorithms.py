"""Compare all implemented algorithms across the paper's three memory regimes.

Reproduces a miniature version of the paper's measurement campaign (Figures
6-11): for square matrices and a sweep of simulated core counts, runs COSMA,
ScaLAPACK (SUMMA), CTF (2.5D) and CARMA in the strong-scaling, limited-memory
and extra-memory regimes, and prints the per-rank communication volumes and
simulated runtimes.

Run with::

    python examples/compare_algorithms.py
"""

from __future__ import annotations

import tempfile

from repro.algorithms import DEFAULT_ALGORITHMS
from repro.experiments.perf_model import simulated_time
from repro.experiments.report import format_table, group_by_scenario
from repro.machine.topology import MachineSpec
from repro.sweeps import run_campaign, spec_from_scenarios
from repro.workloads.scaling import extra_memory_sweep, limited_memory_sweep, strong_scaling_sweep
from repro.workloads.shapes import square_shape

CORE_COUNTS = [4, 16, 36]
MEMORY_WORDS = 2048
SPEC = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)


def scenarios_for(regime: str):
    if regime == "strong":
        return strong_scaling_sweep(square_shape(96), CORE_COUNTS, memory_words=8 * MEMORY_WORDS)
    if regime == "limited":
        return limited_memory_sweep("square", CORE_COUNTS, MEMORY_WORDS)
    return extra_memory_sweep("square", CORE_COUNTS, MEMORY_WORDS)


def main() -> None:
    with tempfile.TemporaryDirectory() as store:
        for regime in ("strong", "limited", "extra"):
            spec = spec_from_scenarios(scenarios_for(regime), algorithms=DEFAULT_ALGORITHMS, mode="plane")
            result = run_campaign(spec, store=store)
            assert result.failed == 0 and all(run.correct for run in result.runs())
            print_regime(regime, group_by_scenario(result.runs()))

    print(
        "\nReading guide: COSMA's words/rank column is the smallest in every row;"
        " the gap is largest when extra memory is available or the matrices are"
        " non-square (see examples/rpa_tall_skinny.py)."
    )


def print_regime(regime: str, grouped) -> None:
    headers = ["p", "shape"] + [f"{name} [words/rank | us]" for name in DEFAULT_ALGORITHMS]
    rows = []
    for scenario_name in sorted(grouped, key=lambda s: int(s.rsplit("p", 1)[-1])):
        by_algo = grouped[scenario_name]
        any_run = next(iter(by_algo.values()))
        shape = any_run.scenario.shape
        row = [any_run.scenario.p, f"{shape.m}^3"]
        for name in DEFAULT_ALGORITHMS:
            run = by_algo[name]
            time_us = simulated_time(run, SPEC) * 1e6
            row.append(f"{run.mean_received_per_rank:,.0f} | {time_us:.1f}")
        rows.append(row)

    print(f"\n=== square matrices, {regime} scaling ===")
    print(format_table(headers, rows))


if __name__ == "__main__":
    main()
