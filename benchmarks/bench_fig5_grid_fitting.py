"""Figure 5 and the "unfavorable number of processors" experiment (section 9).

* Figure 5: with p = 65 and square matrices, using all 65 ranks forces a
  1 x 5 x 13 grid; dropping a single rank enables 4 x 4 x 4, increasing the
  per-rank computation by 1.5% but cutting the busiest domain's I/O by 36%.
* Section 9: COSMA's runtime is insensitive to adding one awkward core
  (p = 9216 vs 9217 in the paper) because the grid optimizer simply leaves it
  idle, whereas CTF's decomposition degrades badly.

The volumes compared are ``fit_ranks``' objective, the busiest domain's I/O
(``domain_io_words``: the per-processor words Theorem 2 bounds); the words a
run receives are what ``repro.plan`` returns.
"""

from _common import print_rows

from repro.core.grid import candidate_grids, domain_io_words, fit_ranks


def _domain_io(grid, n):
    return domain_io_words(*grid.local_extents(n, n, n))


def _figure5(n: int = 4096, p: int = 65):
    fitted = fit_ranks(n, n, n, p, max_idle_fraction=0.03)
    all_ranks_best = min(candidate_grids(p, n, n, n), key=lambda g: _domain_io(g, n))
    all_ranks_io = _domain_io(all_ranks_best, n)
    return {
        "p": p,
        "fitted_grid": fitted.grid.as_tuple(),
        "idle_ranks": fitted.idle_ranks,
        "fitted_domain_io": fitted.domain_io_words,
        "best_all_ranks_grid": all_ranks_best.as_tuple(),
        "all_ranks_domain_io": all_ranks_io,
        "objective_reduction": 1.0 - fitted.domain_io_words / all_ranks_io,
        "extra_compute_fraction": fitted.computation_per_rank / (n * n * n / p) - 1.0,
    }


def test_fig5_grid_fitting_65_ranks(benchmark):
    row = benchmark.pedantic(_figure5, rounds=1, iterations=1)
    print_rows("Figure 5: grid fitting for square matrices on p=65", [row])
    assert row["fitted_grid"] == (4, 4, 4)
    assert row["idle_ranks"] == 1
    # Paper: ~36% communication reduction for ~1.5% extra computation.
    assert row["objective_reduction"] > 0.25
    assert row["extra_compute_fraction"] < 0.05


def _unfavorable(n: int = 512, p_nice: int = 128, p_awkward: int = 131):
    nice = fit_ranks(n, n, n, p_nice, max_idle_fraction=0.03)
    awkward = fit_ranks(n, n, n, p_awkward, max_idle_fraction=0.03)
    return {
        "p_nice": p_nice,
        "nice_grid": nice.grid.as_tuple(),
        "nice_domain_io": nice.domain_io_words,
        "p_awkward": p_awkward,
        "awkward_grid": awkward.grid.as_tuple(),
        "awkward_domain_io": awkward.domain_io_words,
        "objective_ratio": awkward.domain_io_words / nice.domain_io_words,
    }


def test_unfavorable_processor_count(benchmark):
    row = benchmark.pedantic(_unfavorable, rounds=1, iterations=1)
    print_rows("Section 9: unfavorable processor count (COSMA grid fitting)", [row])
    # Adding awkward cores must not degrade COSMA's communication noticeably.
    assert row["objective_ratio"] < 1.10
