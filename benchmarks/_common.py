"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at simulator
scale and prints the reproduced rows/series (captured into the pytest output
with ``-s``, and summarized in EXPERIMENTS.md).  The ``benchmark`` fixture
times the underlying computation so regressions in the library itself are
also visible.

Scale note: the paper's experiments use 109 - 18,432 cores and matrices up to
millions of rows.  In the default (``plane``) mode the simulator physically
multiplies the matrices, so the figure-reproduction sweeps below use
geometrically spaced core counts up to 64 and matrices of a few hundred rows.
The regime definitions (strong scaling / limited memory / extra memory,
section 8) are preserved exactly.  ``volume`` mode (counters-only payloads,
see :mod:`repro.machine.transport`) produces byte-identical communication
counters without any numerics and unlocks paper-scale sweeps -- see the
ledger's ``volume_paper`` workload (``benchmarks/ledger/``) for core counts in
the thousands.
"""

from __future__ import annotations

import tempfile
from typing import Iterable, Sequence

from repro.algorithms import DEFAULT_ALGORITHMS
from repro.experiments.report import format_table
from repro.sweeps import ResultStore, run_campaign, spec_from_scenarios
from repro.workloads.scaling import (
    Scenario,
    extra_memory_sweep,
    limited_memory_sweep,
    strong_scaling_sweep,
)
from repro.workloads.shapes import ProblemShape, flat_shape, large_k_shape, large_m_shape, square_shape

#: Core counts used by every sweep (the paper uses 2^7 .. 2^14.2).
CORE_COUNTS = (4, 16, 36, 64)

#: Per-core memory used by the weak-scaling sweeps, in words.
MEMORY_WORDS = 2048

#: Strong-scaling shapes per family (scaled-down analogues of section 8's sizes).
STRONG_SHAPES = {
    "square": square_shape(96),
    "largeK": large_k_shape(16, 1024),
    "largeM": large_m_shape(1024, 16),
    "flat": flat_shape(192, 12),
}


def scenarios_for(family: str, regime: str, p_values: Sequence[int] = CORE_COUNTS) -> list[Scenario]:
    """Build the scenario list for one (shape family, regime) benchmark."""
    if regime == "strong":
        return strong_scaling_sweep(STRONG_SHAPES[family], p_values, memory_words=8 * MEMORY_WORDS)
    if regime == "limited":
        return limited_memory_sweep(family, p_values, memory_words=MEMORY_WORDS)
    if regime == "extra":
        return extra_memory_sweep(family, p_values, memory_words=MEMORY_WORDS)
    raise ValueError(f"unknown regime {regime!r}")


#: Per-session sweep-engine store: several figures (e.g. Figure 6 and
#: Figures 8/9) are different views of the same measurement campaign, exactly
#: as in the paper, so the second figure resolves from the campaign cache.
#: A fresh temp directory per session keeps the timing benchmarks honest; the
#: TemporaryDirectory finalizer removes it at interpreter exit.
_SESSION_STORE_DIR: tempfile.TemporaryDirectory | None = None
_SESSION_STORE: ResultStore | None = None


def _session_store() -> ResultStore:
    global _SESSION_STORE, _SESSION_STORE_DIR
    if _SESSION_STORE is None:
        _SESSION_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-bench-sweeps-")
        _SESSION_STORE = ResultStore(_SESSION_STORE_DIR.name)
    return _SESSION_STORE


def run_benchmark_sweep(
    family: str,
    regime: str,
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    p_values: Sequence[int] = CORE_COUNTS,
    mode: str = "plane",
):
    """Run a full (family, regime) sweep across algorithms; results are verified
    (except in ``volume`` mode, which simulates counters only).

    Runs go through the sweep campaign engine (:mod:`repro.sweeps`) against a
    per-session result store, so overlapping figure sweeps are answered from
    cache after their first execution.
    """
    spec = spec_from_scenarios(
        scenarios_for(family, regime, p_values),
        algorithms=tuple(algorithms),
        mode=mode,
        seed=0,
        name=f"{family}-{regime}",
    )
    result = run_campaign(spec, store=_session_store(), jobs=1, resume=True)
    if result.failed:
        failures = [(r["algorithm"], r["scenario"]["name"], r["error"]) for r in result.failed_records]
        raise RuntimeError(f"benchmark sweep {family}-{regime} had failures: {failures}")
    return result.runs()


def print_series(title: str, series: dict[str, list[tuple[int, float]]], unit: str) -> None:
    """Print one figure panel as a plain-text table."""
    p_values = sorted({p for points in series.values() for p, _ in points})
    headers = ["algorithm"] + [f"p={p}" for p in p_values]
    rows = []
    for name, points in sorted(series.items()):
        by_p = dict(points)
        rows.append([name] + [by_p.get(p, float("nan")) for p in p_values])
    print(f"\n== {title} [{unit}] ==")
    print(format_table(headers, rows))


def print_rows(title: str, rows: list[dict]) -> None:
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    keys = list(rows[0].keys())
    print(f"\n== {title} ==")
    print(format_table(keys, [[row.get(key, "") for key in keys] for row in rows]))


def shape_label(shape: ProblemShape) -> str:
    return f"{shape.family} m={shape.m} n={shape.n} k={shape.k}"
