"""Ablation: communication back-end (two-sided vs RMA) and overlap (sections 7.3-7.4).

Two design choices of the COSMA implementation are ablated here:

* **one-sided (RMA) vs two-sided (broadcast-tree) back-end** -- the volume is
  identical by construction; what changes is the round/latency accounting
  (passive-target gets charge only the origin);
* **communication-computation overlap** -- double buffering pipelines each
  round's panel fetch behind the previous round's multiplication.  COSMA runs
  on a ladder of memory sizes S, each priced by the time model
  (:func:`~repro.experiments.perf_model.time_breakdown`) over the rounds it
  counted.  The pipeline hides ``min(comm, comp) (1 - 1/rounds)``: never more
  than the smaller component, and less memory means more rounds.
"""

import numpy as np
from _common import print_rows

from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.experiments.harness import run_algorithm
from repro.experiments.perf_model import time_breakdown
from repro.machine.simulator import DistributedMachine
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

#: Memory sizes of the overlap study on 96^3, p = 16 (the footprint needs
#: S >= 1728): from tight to the whole problem in every rank.
S_LADDER = (2048, 4096, 8192, 32768)


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
    rows = []
    for s in S_LADDER:
        scenario = Scenario(name=f"square-overlap-{s}", shape=square_shape(96), p=16,
                            memory_words=s, regime="strong")
        run = run_algorithm("COSMA", scenario, mode="volume")
        breakdown = time_breakdown(run)
        rows.append({
            "S": s,
            "rounds": run.rounds,
            "comm_s": breakdown.communication,
            "compute_s": breakdown.computation,
            "no_overlap_s": breakdown.total_no_overlap,
            "with_overlap_s": breakdown.total_with_overlap,
        })
    return rows


def test_ablation_overlap_rounds(benchmark):
    rows = benchmark.pedantic(_overlap_study, rounds=1, iterations=1)
    print_rows("Ablation: overlap over COSMA's counted rounds (square 96^3, p=16)", rows)
    for row in rows:
        # The pipeline hides at most the smaller component, and never adds time.
        assert max(row["comm_s"], row["compute_s"]) <= row["with_overlap_s"] <= row["no_overlap_s"]
    # Less memory takes more rounds.
    assert rows[0]["rounds"] > rows[-1]["rounds"]
