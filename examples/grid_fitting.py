"""Processor-grid fitting and awkward processor counts (Figure 5, section 7.1).

Shows how COSMA's ``FitRanks`` step handles processor counts that do not
factor nicely: it may leave a few ranks idle when that reduces communication
(the paper's p = 65 example), and it keeps the communication volume stable
when a single awkward core is added (the paper's p = 9216 vs 9217 anecdote).
The words printed here are the fit's objective, the busiest domain's I/O
(``domain_io_words``: the per-processor quantity Theorem 2 bounds);
``repro.plan`` also returns the words a run receives on the fitted grid.

Run with::

    python examples/grid_fitting.py
"""

from __future__ import annotations

from repro.core.grid import candidate_grids, domain_io_words, fit_ranks


def figure5_example() -> None:
    n, p = 4096, 65
    fitted = fit_ranks(n, n, n, p, max_idle_fraction=0.03)
    best_all = min(
        candidate_grids(p, n, n, n), key=lambda g: domain_io_words(*g.local_extents(n, n, n))
    )
    all_io = domain_io_words(*best_all.local_extents(n, n, n))

    print("Figure 5: square matrices on 65 processors")
    print(f"  best grid using all 65 ranks : {best_all.as_tuple()}  "
          f"(busiest domain I/O {all_io:,} words)")
    print(f"  COSMA's fitted grid          : {fitted.grid.as_tuple()}  "
          f"(busiest domain I/O {fitted.domain_io_words:,} words, "
          f"{fitted.idle_ranks} rank idle)")
    print(f"  domain I/O reduction         : {100 * (1 - fitted.domain_io_words / all_io):.0f}%")
    extra = fitted.computation_per_rank / (n ** 3 / p) - 1
    print(f"  extra computation per rank   : {100 * extra:.1f}%\n")


def awkward_core_counts() -> None:
    n = 1024
    print("Adding awkward cores should not hurt (section 9):")
    print(f"{'p':>6} {'grid':>14} {'domain I/O':>12} {'idle':>5}")
    for p in (96, 97, 128, 131, 144, 149):
        fit = fit_ranks(n, n, n, p, max_idle_fraction=0.03)
        print(
            f"{p:>6} {str(fit.grid.as_tuple()):>14} {fit.domain_io_words:>12,} "
            f"{fit.idle_ranks:>5}"
        )
    print("\nPrime-ish processor counts cost at most a few idle ranks, never a bad grid.")


if __name__ == "__main__":
    figure5_example()
    awkward_core_counts()
