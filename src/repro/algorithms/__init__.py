"""First-class algorithm registry (see :mod:`repro.algorithms.registry`).

Importing this package registers the paper's five comparison algorithms
(COSMA, ScaLAPACK/SUMMA, CTF/2.5D, CARMA, Cannon); ``extensions/`` modules
self-register additional algorithms on import via
:func:`register_algorithm`.

Typical use::

    from repro.algorithms import get_algorithm

    spec = get_algorithm("COSMA")
    plan = spec.plan(scenario)          # grid / rounds / words / Theorem 2 ratio, no execution
    product = spec.run(a, b, scenario, machine)
    words = spec.io_cost(m, n, k, p, s)  # Table 3 I/O formula
"""

from repro.algorithms.registry import (
    AlgorithmSpec,
    InfeasiblePlan,
    Plan,
    UnknownAlgorithmError,
    algorithm_choices,
    algorithm_specs,
    default_algorithms,
    get_algorithm,
    is_registered,
    plan_cache_clear,
    register,
    register_algorithm,
    registered_algorithms,
    resolve_algorithm,
    unregister,
)
from repro.algorithms import builtins as _builtins  # noqa: F401 - registers the core five
from repro.algorithms.builtins import cosma_idle_fraction

#: The subset the paper's figures compare (Cannon is subsumed by
#: ScaLAPACK/SUMMA).  Derived from the registry's capability flags.
DEFAULT_ALGORITHMS: tuple[str, ...] = default_algorithms()

__all__ = [
    "DEFAULT_ALGORITHMS",
    "AlgorithmSpec",
    "InfeasiblePlan",
    "Plan",
    "UnknownAlgorithmError",
    "algorithm_choices",
    "algorithm_specs",
    "cosma_idle_fraction",
    "default_algorithms",
    "get_algorithm",
    "is_registered",
    "plan_cache_clear",
    "register",
    "register_algorithm",
    "registered_algorithms",
    "resolve_algorithm",
    "unregister",
]
