"""Theorem 2 / Equation 32: parallel I/O optimality of the COSMA schedule.

Checks, across processor counts and memory sizes where ``p S`` covers the
footprint (section 6.3), that (a) the per-rank received words a COSMA run
counts are exactly what its plan predicts, (b) the busiest rank's local domain
touches at least the Theorem 2 bound (the optimality ratio is >= 1), and
(c) the I/O-latency trade-off behaves as derived in section 6.3.
"""

import numpy as np
from _common import print_rows

from repro.api import multiply, plan
from repro.core.tradeoff import tradeoff_curve


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


def test_theorem2_tradeoff_curve(benchmark):
    points = benchmark.pedantic(
        tradeoff_curve, args=(256, 256, 256, 16, 2048), kwargs={"samples": 16}, rounds=1, iterations=1
    )
    rows = [
        {"a": round(pt.a, 1), "io": round(pt.io_cost), "latency": round(pt.latency_cost, 2), "rounds": pt.rounds}
        for pt in points
    ]
    print_rows("Section 6.3: I/O-latency trade-off (256^3, p=16, S=2048)", rows)
    ios = [pt.io_cost for pt in points]
    latencies = [pt.latency_cost for pt in points]
    # Growing a reduces I/O but raises latency.
    assert ios[0] > ios[-1]
    assert latencies[-1] > latencies[0]
