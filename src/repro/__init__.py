"""COSMA reproduction: near communication-optimal parallel matrix-matrix multiplication.

This package reproduces the system described in

    Kwasniewski et al., "Red-Blue Pebbling Revisited: Near Optimal Parallel
    Matrix-Matrix Multiplication", SC 2019 (arXiv:1908.09606).

It provides:

* :mod:`repro.pebbling` -- the red-blue pebble game, the MMM CDAG, the
  Listing 1 schedule with its exact I/O, and Theorems 1-2.
* :mod:`repro.machine` -- a distributed machine simulator with exact
  communication-volume accounting.
* :mod:`repro.layouts` -- input layouts as ownership tables (section 7.6):
  ScaLAPACK's block-cyclic layout and the words a conversion between two
  layouts moves, counted in O(segments) at paper scale.
* :mod:`repro.core` -- the COSMA algorithm: processor-grid fitting, the
  blocked decomposition and the distributed executor.
* :mod:`repro.baselines` -- Cannon, SUMMA (2D), 2.5D/3D, and CARMA-style
  recursive decompositions implemented on the same simulator.
* :mod:`repro.sequential` -- sequential MMM kernels with counted slow-memory
  traffic (the Theorem 1 experiments).
* :mod:`repro.workloads` -- matrix-shape and scaling-scenario generators used
  in the paper's evaluation (section 8).
* :mod:`repro.experiments` -- the benchmark harness, the time model (one
  alpha-beta-gamma price of what a run counted: flops, rounds, words) and
  report generators that regenerate every table and figure.
* :mod:`repro.algorithms` -- the algorithm registry: one ``AlgorithmSpec``
  per algorithm bundling runner, planner, Table 3 I/O formula and capability
  flags; ``@register_algorithm`` adds new backends in a few lines.

Quick start
-----------

>>> from repro import multiply
>>> import numpy as np
>>> A = np.random.rand(64, 48); B = np.random.rand(48, 80)
>>> result = multiply(A, B, processors=8, memory_words=2048)
>>> bool(np.allclose(result.matrix, A @ B))
True
"""

from repro._version import __version__
from repro.algorithms import (
    AlgorithmSpec,
    Plan,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.api import (
    RunReport,
    lower_bound_parallel,
    lower_bound_sequential,
    multiply,
    plan,
)

__all__ = [
    "__version__",
    "multiply",
    "plan",
    "RunReport",
    "AlgorithmSpec",
    "Plan",
    "get_algorithm",
    "register_algorithm",
    "registered_algorithms",
    "lower_bound_sequential",
    "lower_bound_parallel",
]
