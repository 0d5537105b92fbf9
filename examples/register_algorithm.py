"""Register a brand-new algorithm in ~30 lines and compare it to COSMA.

The algorithm registry (:mod:`repro.algorithms`) makes backends pluggable:
decorate a runner with the uniform ``(a, b, scenario, machine)`` signature
with ``@register_algorithm`` and it immediately works in ``api.multiply``,
``api.plan``, the harness, the CLI choice lists and the sweep engine.  Its
runs are priced by the same time model as every built-in's (from the flops,
rounds and words they count), and a Table 3 I/O formula (``io_cost``) adds
the predicted-words columns to campaign tables.

Here we register "RootGEMM", the worst reasonable baseline: gather both
inputs on rank 0, multiply there, scatter C's rows back.  Its per-processor
cost is dominated by rank 0 receiving ~everything, which every distributed
decomposition exists to avoid -- compare the words/rank columns.

A runner has the shape of every engine in the library: it posts its
schedule's transfers on the machine's counters (``post_transfers``, one call
per phase) and its flops (``post_flops``), then computes the product with one
GEMM -- or, on a ``volume`` machine, returns a shape token, since its
payloads carry no values.

Run with::

    python examples/register_algorithm.py

(See ``repro/extensions/allgather.py`` for the curated version of this
pattern: Figure 2's naive 1D all-gather baseline, shipped as an extension.)
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import register_algorithm
from repro.experiments.harness import run_scenario
from repro.experiments.report import format_table
from repro.machine.transport import ShapeToken
from repro.utils.intmath import split_offsets
from repro.workloads.scaling import limited_memory_sweep


@register_algorithm(
    "RootGEMM",
    io_cost=lambda m, n, k, p, s: float(m * k + k * n + m * n) * (p - 1) / p,
    description="gather everything on rank 0, multiply, scatter C",
)
def root_gemm(a, b, scenario, machine):
    m, k = a.shape
    n = b.shape[1]
    p = max(1, min(scenario.p, m))
    rows_a = np.array([hi - lo for lo, hi in split_offsets(m, p)])
    rows_b = np.array([hi - lo for lo, hi in split_offsets(k, p)])
    # Everyone starts owning a row stripe of A and B, like the 1D layout;
    # rank 0 pulls every other stripe, multiplies locally, scatters C's rows back.
    others, root = np.arange(1, p), np.zeros(p - 1, dtype=int)
    machine.post_transfers(others, root, rows_a[1:] * k, kind="input")
    machine.post_transfers(others, root, rows_b[1:] * n, kind="input")
    machine.post_flops("root-gemm", [0], np.array([2 * m * n * k]))
    machine.post_transfers(root, others, rows_a[1:] * n, kind="output")
    return ShapeToken((m, n)) if machine.transport.counters_only else a @ b


def main() -> None:
    scenario = limited_memory_sweep("square", [9], 4096)[0]
    runs = run_scenario(scenario, algorithms=("COSMA", "ScaLAPACK", "RootGEMM"))
    rows = [
        [name, run.correct, round(run.mean_words_per_rank), round(run.max_words_per_rank)]
        for name, run in runs.items()
    ]
    print(f"scenario: {scenario.name} (p={scenario.p}, S={scenario.memory_words} words)")
    print(format_table(["algorithm", "correct", "mean words/rank", "max words/rank"], rows))


if __name__ == "__main__":
    main()
