"""Figure 3: top-down 3D decomposition vs COSMA's bottom-up decomposition.

The paper's Figure 3 illustrates, for p = 8, how deriving the decomposition
from the optimal sequential schedule (bottom-up) reduces the communication
volume compared with fixing a cubic processor grid upfront (top-down); the
illustration reports a 17% reduction.  Here we measure both decompositions on
the simulator in a limited-memory setting (where the cubic grid's local output
block does not fit in fast memory) and with ample memory (where the two
coincide).

At p = 8 the cubic block fits in any S with ``p S >= mn + mk + nk`` (section
6.3's precondition), so the limited-memory point lies below it, and
``repro.multiply`` refuses it (``InfeasiblePlan``).  Both points therefore call
COSMA's engine on its fitted decomposition directly, as the test suite does.
"""

import numpy as np
import pytest
from _common import print_rows

from repro.core.cosma import cosma_run
from repro.core.cost_model import communication_reduction_vs_grid
from repro.core.decomposition import build_decomposition
from repro.machine import DistributedMachine


def _measured_comparison(n: int, p: int, memory_words: int):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    decomposition = build_decomposition(n, n, n, p, memory_words, max_idle_fraction=0.03)
    machine = DistributedMachine(p, memory_words=memory_words)
    product = cosma_run(machine, a, b, decomposition)
    analytic_ratio = communication_reduction_vs_grid(n, n, n, p, memory_words, (2, 2, 2))
    return {
        "cosma_grid": decomposition.grid.as_tuple(),
        "cosma_received_per_rank": machine.counters.mean_received_per_rank(),
        "analytic_cubic_over_cosma": analytic_ratio,
        "correct": bool(np.allclose(product, a @ b)),
    }


def test_fig3_limited_memory(benchmark):
    n, p = 96, 8
    s = n * n // 8  # cubic local C block (48x48 = n^2/4 words) does not fit
    row = benchmark.pedantic(_measured_comparison, args=(n, p, s), rounds=1, iterations=1)
    print_rows(f"Figure 3 (limited memory): n={n}, p={p}, S={s}", [row])
    assert row["correct"]
    # The top-down cubic decomposition moves more data (the paper's example: +17%).
    assert row["analytic_cubic_over_cosma"] > 1.1


def test_fig3_ample_memory(benchmark):
    n, p = 96, 8
    s = 1 << 16  # cubic domains fit: the decompositions coincide
    row = benchmark.pedantic(_measured_comparison, args=(n, p, s), rounds=1, iterations=1)
    print_rows(f"Figure 3 (ample memory): n={n}, p={p}, S={s}", [row])
    assert row["correct"]
    assert row["analytic_cubic_over_cosma"] == pytest.approx(1.0, rel=0.05)
    assert row["cosma_grid"] == (2, 2, 2)
