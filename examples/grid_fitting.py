"""Processor-grid fitting and awkward processor counts (Figure 5, section 7.1).

Shows how COSMA's ``FitRanks`` step handles processor counts that do not
factor nicely: it may leave a few ranks idle when that reduces communication
(the paper's p = 65 example), and it keeps the communication volume stable
when a single awkward core is added (the paper's p = 9216 vs 9217 anecdote).
The words per rank printed here are the fit's objective
(``communication_volume_per_rank``), an estimate; ``repro.plan`` returns the
count a run makes on the fitted grid.

Run with::

    python examples/grid_fitting.py
"""

from __future__ import annotations

from repro.core.grid import candidate_grids, communication_volume_per_rank, fit_ranks


def figure5_example() -> None:
    n, p = 4096, 65
    fitted = fit_ranks(n, n, n, p, max_idle_fraction=0.03)
    best_all = min(
        candidate_grids(p, n, n, n), key=lambda g: communication_volume_per_rank(g, n, n, n)
    )
    all_volume = communication_volume_per_rank(best_all, n, n, n)

    print("Figure 5: square matrices on 65 processors")
    print(f"  best grid using all 65 ranks : {best_all.as_tuple()}  "
          f"(fit objective {all_volume:,.0f} words/rank)")
    print(f"  COSMA's fitted grid          : {fitted.grid.as_tuple()}  "
          f"(fit objective {fitted.communication_per_rank:,.0f} words/rank, "
          f"{fitted.idle_ranks} rank idle)")
    print(f"  objective reduction          : {100 * (1 - fitted.communication_per_rank / all_volume):.0f}%")
    extra = fitted.computation_per_rank / (n ** 3 / p) - 1
    print(f"  extra computation per rank   : {100 * extra:.1f}%\n")


def awkward_core_counts() -> None:
    n = 1024
    print("Adding awkward cores should not hurt (section 9):")
    print(f"{'p':>6} {'grid':>14} {'objective':>12} {'idle':>5}")
    for p in (96, 97, 128, 131, 144, 149):
        fit = fit_ranks(n, n, n, p, max_idle_fraction=0.03)
        print(
            f"{p:>6} {str(fit.grid.as_tuple()):>14} {fit.communication_per_rank:>12,.0f} "
            f"{fit.idle_ranks:>5}"
        )
    print("\nPrime-ish processor counts cost at most a few idle ranks, never a bad grid.")


if __name__ == "__main__":
    figure5_example()
    awkward_core_counts()
