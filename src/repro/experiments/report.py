"""Report generators: text tables and series for every paper artifact.

The benchmarks print these reports; EXPERIMENTS.md records representative
outputs next to the numbers the paper reports.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.experiments.harness import RunReport, group_by_scenario
from repro.experiments.perf_model import percent_of_peak, simulated_time, time_breakdown
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0 if the iterable is empty)."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a plain-text table with aligned columns."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


# ---------------------------------------------------------------------------
# Figures 6 / 7: communication volume per core vs core count
# ---------------------------------------------------------------------------
def volume_series(runs: Iterable[RunReport]) -> dict[str, list[tuple[int, float]]]:
    """Per-algorithm series of (p, MB communicated per core)."""
    series: dict[str, list[tuple[int, float]]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append((run.scenario.p, run.mean_megabytes_per_rank))
    for points in series.values():
        points.sort()
    return series


def volume_table(runs: Iterable[RunReport]) -> str:
    """Text table of MB/core per algorithm per core count (one Figure 6/7 panel)."""
    grouped = group_by_scenario(runs)
    algorithms = sorted({run.algorithm for run in runs})
    headers = ["scenario", "p"] + [f"{a} [MB/core]" for a in algorithms]
    rows = []
    for name, by_algo in grouped.items():
        any_run = next(iter(by_algo.values()))
        row: list[object] = [name, any_run.scenario.p]
        for algo in algorithms:
            run = by_algo.get(algo)
            row.append(run.mean_megabytes_per_rank if run else float("nan"))
        rows.append(row)
    rows.sort(key=lambda r: (str(r[0]).rsplit("-", 1)[0], int(r[1])))
    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Figures 8-11, 13-14: % of peak and runtime
# ---------------------------------------------------------------------------
def performance_series(
    runs: Iterable[RunReport],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> dict[str, list[tuple[int, float]]]:
    """Per-algorithm series of (p, % of peak)."""
    series: dict[str, list[tuple[int, float]]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append(
            (run.scenario.p, percent_of_peak(run, spec))
        )
    for points in series.values():
        points.sort()
    return series


def runtime_series(
    runs: Iterable[RunReport],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> dict[str, list[tuple[int, float]]]:
    """Per-algorithm series of (p, simulated runtime in seconds)."""
    series: dict[str, list[tuple[int, float]]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append(
            (run.scenario.p, simulated_time(run, spec))
        )
    for points in series.values():
        points.sort()
    return series


def performance_distribution(
    runs: Iterable[RunReport],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> dict[str, dict[str, float]]:
    """Min / geometric mean / max % of peak per algorithm (Figures 13-14, Figure 1)."""
    per_algo: dict[str, list[float]] = {}
    for run in runs:
        per_algo.setdefault(run.algorithm, []).append(percent_of_peak(run, spec))
    summary: dict[str, dict[str, float]] = {}
    for algo, values in per_algo.items():
        summary[algo] = {
            "min": min(values),
            "geomean": geometric_mean(values),
            "max": max(values),
        }
    return summary


# ---------------------------------------------------------------------------
# Table 4: mean communication volume per rank and COSMA speedups
# ---------------------------------------------------------------------------
def table4_rows(
    runs_by_benchmark: Mapping[str, list[RunReport]],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> list[dict[str, object]]:
    """Build Table 4: one row per (shape family, regime) benchmark.

    ``runs_by_benchmark`` maps a benchmark label (e.g. ``"square-limited"``) to
    all runs of that benchmark across core counts and algorithms.
    """
    rows: list[dict[str, object]] = []
    for label, runs in runs_by_benchmark.items():
        by_algo: dict[str, list[RunReport]] = {}
        for run in runs:
            by_algo.setdefault(run.algorithm, []).append(run)
        volumes = {
            algo: sum(r.mean_megabytes_per_rank for r in algo_runs) / len(algo_runs)
            for algo, algo_runs in by_algo.items()
        }
        speedups = _cosma_speedups(runs, spec)
        row: dict[str, object] = {"benchmark": label}
        row.update({f"vol_{algo}": volume for algo, volume in sorted(volumes.items())})
        if speedups:
            row["speedup_min"] = min(speedups)
            row["speedup_geomean"] = geometric_mean(speedups)
            row["speedup_max"] = max(speedups)
        rows.append(row)
    return rows


def _cosma_speedups(runs: list[RunReport], spec: MachineSpec) -> list[float]:
    """COSMA's speedup over the second-best algorithm, per core count."""
    grouped = group_by_scenario(runs)
    speedups: list[float] = []
    for by_algo in grouped.values():
        if "COSMA" not in by_algo or len(by_algo) < 2:
            continue
        cosma_time = simulated_time(by_algo["COSMA"], spec)
        others = [simulated_time(run, spec) for algo, run in by_algo.items() if algo != "COSMA"]
        if cosma_time <= 0 or not others:
            continue
        speedups.append(min(others) / cosma_time)
    return speedups


def table4_text(
    runs_by_benchmark: Mapping[str, list[RunReport]],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> str:
    rows = table4_rows(runs_by_benchmark, spec)
    if not rows:
        return "(no runs)"
    keys = sorted({key for row in rows for key in row if key != "benchmark"})
    headers = ["benchmark"] + keys
    table_rows = [[row.get("benchmark")] + [row.get(key, "") for key in keys] for row in rows]
    return format_table(headers, table_rows)


# ---------------------------------------------------------------------------
# Figure 12: communication / computation breakdown
# ---------------------------------------------------------------------------
def breakdown_rows(
    runs: Iterable[RunReport],
    spec: MachineSpec = PIZ_DAINT_LIKE,
) -> list[dict[str, object]]:
    rows = []
    for run in runs:
        breakdown = time_breakdown(run, spec)
        rows.append(
            {
                "scenario": run.scenario.name,
                "algorithm": run.algorithm,
                "p": run.scenario.p,
                "compute_s": breakdown.computation,
                "comm_inputs_s": breakdown.input_communication,
                "comm_output_s": breakdown.output_communication,
                "total_no_overlap_s": breakdown.total_no_overlap,
                "total_with_overlap_s": breakdown.total_with_overlap,
                "comm_fraction": breakdown.communication_fraction,
            }
        )
    return rows
