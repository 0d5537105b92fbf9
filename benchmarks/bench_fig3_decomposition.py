"""Figure 3: top-down 3D decomposition vs COSMA's bottom-up decomposition.

The paper's Figure 3 illustrates, for p = 8, how deriving the decomposition
from the optimal sequential schedule (bottom-up) reduces the communication
volume compared with fixing a cubic processor grid upfront (top-down); the
illustration reports a 17% reduction.  Here COSMA's engine runs both
decompositions on the simulator and counts their words: its own fitted grid
and the cubic ``2 x 2 x 2`` grid, at points ``plan()`` calls feasible.

* 192 x 192 x 48 with S = 6912: COSMA fits (2, 4, 1), whose busiest domain
  touches 11,520 words against the cube's 13,824 (16.7% fewer, the paper's
  17%); each rank receives 4608 words against 6912.
* 96^3 with ample memory: COSMA fits the cube itself, and the two coincide.
"""

import numpy as np
import pytest
from _common import print_rows

from repro.algorithms import get_algorithm
from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid, domain_io_words
from repro.machine import DistributedMachine
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

CUBE = ProcessorGrid(2, 2, 2)


def _measured_comparison(m: int, n: int, k: int, p: int, s: int):
    scenario = Scenario(name="fig3", shape=ProblemShape(m=m, n=n, k=k, family="fig3"), p=p,
                        memory_words=s, regime="fig3")
    plan = get_algorithm("COSMA").feasible_plan(scenario)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    rows = []
    for label, grid in (("COSMA (bottom-up)", ProcessorGrid(*plan.grid)), ("cubic (top-down)", CUBE)):
        machine = DistributedMachine(p, memory_words=s)
        product = cosma_run(machine, a, b, build_decomposition(m, n, k, p, s, grid=grid))
        rows.append({
            "decomposition": label,
            "grid": grid.as_tuple(),
            "domain_io_words": domain_io_words(*grid.local_extents(m, n, k)),
            "received_per_rank": machine.counters.mean_received_per_rank(),
            "correct": bool(np.allclose(product, a @ b)),
        })
    return rows


def test_fig3_limited_memory(benchmark):
    m, n, k, p, s = 192, 192, 48, 8, 6912
    rows = benchmark.pedantic(_measured_comparison, args=(m, n, k, p, s), rounds=1, iterations=1)
    print_rows(f"Figure 3 (limited memory): {m}x{n}x{k}, p={p}, S={s}", rows)
    cosma, cube = rows
    assert cosma["correct"] and cube["correct"]
    # The top-down cubic decomposition moves more data (the paper's example: +17%).
    assert cube["received_per_rank"] / cosma["received_per_rank"] > 1.1
    assert 1 - cosma["domain_io_words"] / cube["domain_io_words"] == pytest.approx(1 / 6)


def test_fig3_ample_memory(benchmark):
    n, p, s = 96, 8, 1 << 16
    rows = benchmark.pedantic(_measured_comparison, args=(n, n, n, p, s), rounds=1, iterations=1)
    print_rows(f"Figure 3 (ample memory): n={n}, p={p}, S={s}", rows)
    cosma, cube = rows
    assert cosma["correct"] and cube["correct"]
    assert cosma["grid"] == (2, 2, 2)
    assert cube["received_per_rank"] / cosma["received_per_rank"] == 1.0
