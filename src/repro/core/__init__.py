"""COSMA: the paper's primary contribution.

The pipeline mirrors Algorithm 1:

1. :func:`repro.core.cost_model.cosma_local_domain` gives the optimal
   real-valued local domain ``[a x a x b]`` (Equation 32): the width from the
   sequential I/O analysis (section 5), the depth from load balance
   (section 6.3).
2. :func:`repro.core.grid.fit_ranks` fits a processor grid to the matrix
   dimensions, optionally leaving up to ``delta`` of the processors idle when
   that reduces communication (section 7.1).
3. :func:`repro.core.decomposition.build_decomposition` assigns local domains,
   the blocked data layout (section 7.6) and the latency-minimizing step.
4. :func:`repro.core.cosma.cosma_multiply` executes the schedule on the
   distributed machine simulator, counting every communicated word.

The analytic counterparts (Theorem 2 costs, I/O-latency trade-off, buffer
sizing) live in :mod:`repro.core.cost_model`, :mod:`repro.core.tradeoff` and
:mod:`repro.core.buffers`.
"""

from repro.core.cosma import CosmaRunResult, cosma_multiply
from repro.core.cost_model import cosma_io_cost, cosma_latency_cost
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid, fit_ranks

__all__ = [
    "cosma_multiply",
    "CosmaRunResult",
    "cosma_io_cost",
    "cosma_latency_cost",
    "build_decomposition",
    "CosmaDecomposition",
    "ProcessorGrid",
    "fit_ranks",
]
