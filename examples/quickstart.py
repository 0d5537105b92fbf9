"""Quickstart: multiply two matrices with COSMA on a simulated cluster.

Run with::

    python examples/quickstart.py

The example multiplies a 256 x 192 by a 192 x 320 matrix on 16 simulated
processors, verifies the result against numpy, and prints the communication
profile together with the Theorem 2 lower bound, showing how close the
schedule is to communication optimality: the optimality ratio divides the
words the busiest rank's local domain touches (its A and B projections plus
its C block) by the bound.
"""

from __future__ import annotations

import numpy as np

from repro import lower_bound_parallel, multiply, plan


def main() -> None:
    rng = np.random.default_rng(0)
    m, n, k = 256, 320, 192
    processors = 16
    memory_words = 16_384  # words (matrix elements) of fast memory per processor

    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))

    result = multiply(a, b, processors=processors, memory_words=memory_words)

    assert np.allclose(result.matrix, a @ b), "distributed result must match numpy"

    print("COSMA quickstart")
    print("----------------")
    print(f"problem                 : C({m} x {n}) = A({m} x {k}) @ B({k} x {n})")
    print(f"processors              : {processors} (grid {result.grid}, {result.processors_used} used)")
    print(f"memory per processor    : {memory_words} words")
    print(f"communication rounds    : {result.rounds}")
    print(f"words received per rank : {result.mean_received_per_rank:,.0f}")
    print(f"busiest domain I/O      : {result.plan.domain_io_words:,}")
    print(f"Theorem 2 lower bound   : {lower_bound_parallel(m, n, k, processors, memory_words):,.0f}")
    print(f"optimality ratio        : {result.optimality_ratio:.3f} (busiest domain I/O / bound)")
    print(f"total words on the wire : {result.total_communicated_words:,}")
    print("result verified against numpy: OK")

    # The planning layer answers "what would COSMA do?" without executing --
    # here at a scale no laptop could multiply for real.
    big = plan(65_536, 65_536, 65_536, processors=16_384, memory_words=2**24)
    print(f"\nplanned paper-scale grid: {big.grid} "
          f"({big.predicted_words_per_rank:,.0f} words received/rank, exactly what a run "
          f"counts; busiest domain {big.optimality_ratio:.3f}x the Theorem 2 bound)")


if __name__ == "__main__":
    main()
