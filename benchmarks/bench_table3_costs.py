"""Table 3: analytic I/O costs of 2D, 2.5D, recursive and COSMA, and the
rounds each algorithm's busiest rank counts.

Reproduces the general-case I/O formulas and the two special cases the paper
tabulates:

* square matrices, "limited memory": ``m = n = k``, ``S = 2 n^2 / p`` --
  2D, 2.5D and COSMA all reach ``~2 n^2 / sqrt(p)`` while CARMA pays an extra
  ``sqrt(3)`` factor;
* "tall" matrices, extra memory: ``m = n = sqrt(p)``, ``k = p^{3/2} / 4`` --
  2D pays ``O(sqrt(p))`` more and CARMA about 8% more than COSMA.

Table 3's latency column is not a formula here: each row prints the rounds
the algorithm's plan counts (``Plan.rounds``, what its run counts on its
busiest rank), ``-`` where ``p S`` cannot hold the matrices and no schedule
runs (the square case's ``S = 2 n^2 / p``).
"""

import math

import pytest
from _common import print_rows

from repro.algorithms import get_algorithm
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

#: Table 3's columns and the registered algorithm behind each.
COLUMNS = {"2D (ScaLAPACK)": "ScaLAPACK", "2.5D (CTF)": "CTF", "recursive (CARMA)": "CARMA",
           "COSMA": "COSMA"}


def _general_case_rows(m, n, k, p, s):
    """Per algorithm: its Table 3 I/O (COSMA's is Theorem 2 itself) and its
    busiest rank's counted rounds."""
    scenario = Scenario(name="table3", shape=ProblemShape(m=m, n=n, k=k), p=p, memory_words=s,
                        regime="table3")
    rows = []
    for label, name in COLUMNS.items():
        plan = get_algorithm(name).plan(scenario)
        rows.append({"algorithm": label, "io": get_algorithm(name).cost(scenario).io_words_per_rank,
                     "rounds": plan.rounds if plan.feasible else "-"})
    return rows


def test_table3_square_limited_memory(benchmark):
    n = 1 << 12
    p = 1 << 9
    s = 2 * n * n // p
    rows = benchmark(_general_case_rows, n, n, n, p, s)
    print_rows(f"Table 3 (square, limited memory): n={n}, p={p}, S=2n^2/p", rows)
    costs = {row["algorithm"]: row["io"] for row in rows}
    # Paper: 2D, 2.5D and COSMA all achieve ~2 n^2/sqrt(p); CARMA is sqrt(3)x worse.
    reference = 2 * n * n / math.sqrt(p)
    assert costs["COSMA"] == pytest.approx(reference, rel=0.25)
    assert costs["2D (ScaLAPACK)"] == pytest.approx(reference, rel=0.25)
    assert costs["2.5D (CTF)"] == pytest.approx(reference, rel=0.25)
    ratio_carma = costs["recursive (CARMA)"] / costs["COSMA"]
    assert 1.2 < ratio_carma < 2.0  # ~sqrt(3) = 1.73


def test_table3_tall_extra_memory(benchmark):
    p = 1 << 12
    m = n = int(math.sqrt(p))
    k = int(p ** 1.5 / 4)
    s = 2 * n * k // int(p ** (2 / 3))
    rows = benchmark(_general_case_rows, m, n, k, p, s)
    print_rows(f"Table 3 (tall, extra memory): m=n={m}, k={k}, p={p}", rows)
    costs = {row["algorithm"]: row["io"] for row in rows}
    # Paper: 2D performs O(sqrt(p)) more communication than COSMA, CARMA ~8% more.
    assert costs["2D (ScaLAPACK)"] / costs["COSMA"] > math.sqrt(p) / 8
    assert 1.0 <= costs["recursive (CARMA)"] / costs["COSMA"] < 1.8
    assert costs["2.5D (CTF)"] >= costs["COSMA"] * 0.99


def test_table3_general_case_cosma_always_best(benchmark):
    def sweep_shapes():
        results = []
        for (m, n, k) in [(4096, 4096, 4096), (256, 256, 262144), (262144, 256, 256), (65536, 65536, 256)]:
            p = 1024
            footprint = m * n + m * k + n * k
            s = 2 * footprint // p
            results.append((f"{m}x{n}x{k}", _general_case_rows(m, n, k, p, s)))
        return results

    results = benchmark(sweep_shapes)
    for column in ("io", "rounds"):
        print_rows(f"Table 3 (general case, p=1024, S=2I/p): {column}",
                   [{"shape": shape, **{r["algorithm"]: r[column] for r in rows}}
                    for shape, rows in results])
    for _, rows in results:
        io = {row["algorithm"]: row["io"] for row in rows}
        for name in ("2D (ScaLAPACK)", "2.5D (CTF)", "recursive (CARMA)"):
            assert io["COSMA"] <= io[name] * 1.01
