"""Ablation: communication back-end (two-sided vs RMA) and overlap (sections 7.3-7.4).

Two design choices of the COSMA implementation are ablated here:

* **one-sided (RMA) vs two-sided (broadcast-tree) back-end** -- the volume is
  identical by construction; what changes is the round/latency accounting
  (passive-target gets charge only the origin);
* **communication-computation overlap** -- double buffering pipelines each
  round's panel fetch behind the previous round's multiplication; the benefit
  grows with the number of rounds.
"""

import numpy as np
from _common import print_rows

from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.overlap import even_rounds
from repro.experiments.perf_model import time_breakdown
from repro.experiments.harness import run_algorithm
from repro.machine.simulator import DistributedMachine
from repro.machine.topology import MachineSpec
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

SPEC = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)


def _backend_comparison(n: int = 64, p: int = 8, s: int = 1024):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    decomposition = build_decomposition(n, n, n, p, s)
    rows = []
    for use_rma in (False, True):
        machine = DistributedMachine(p, memory_words=s)
        product = cosma_run(machine, a, b, decomposition, use_rma)
        rows.append(
            {
                "backend": "RMA (one-sided)" if use_rma else "two-sided (tree)",
                "total_words": machine.counters.total_words_sent,
                "max_rounds": machine.counters.max_rounds(),
                "correct": bool(np.allclose(product, a @ b)),
            }
        )
    return rows


def test_ablation_rma_backend(benchmark):
    rows = benchmark.pedantic(_backend_comparison, rounds=1, iterations=1)
    print_rows("Ablation: two-sided vs RMA back-end (64^3, p=8, S=1024)", rows)
    assert all(row["correct"] for row in rows)
    two_sided, rma = rows
    # Identical volume, different latency accounting (one-sided is passive-target).
    assert two_sided["total_words"] == rma["total_words"]
    assert rma["max_rounds"] <= two_sided["max_rounds"]


def _overlap_study():
    scenario = Scenario(
        name="square-overlap", shape=square_shape(96), p=16, memory_words=2048, regime="strong"
    )
    run = run_algorithm("COSMA", scenario, seed=0)
    breakdown = time_breakdown(run, SPEC)
    rows = [
        {
            "rounds": rounds,
            "no_overlap_s": even_rounds(breakdown.communication, breakdown.computation, rounds).total_no_overlap,
            "with_overlap_s": even_rounds(breakdown.communication, breakdown.computation, rounds).total_with_overlap,
        }
        for rounds in (1, 2, 4, 8, 16)
    ]
    return rows


def test_ablation_overlap_rounds(benchmark):
    rows = benchmark.pedantic(_overlap_study, rounds=1, iterations=1)
    print_rows("Ablation: overlap benefit vs number of rounds (square 96^3, p=16)", rows)
    savings = [1 - row["with_overlap_s"] / row["no_overlap_s"] for row in rows]
    # A single round cannot overlap anything; more rounds hide more communication.
    assert savings[0] == 0.0
    assert savings[-1] > savings[0]
    assert all(b >= a - 1e-12 for a, b in zip(savings, savings[1:]))
