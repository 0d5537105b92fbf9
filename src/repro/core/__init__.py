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
4. :func:`repro.core.cosma.cosma_run` executes that decomposition on the
   distributed machine simulator, counting every communicated word; the
   registered COSMA runner (:mod:`repro.algorithms.builtins`) is steps 2-4
   on the planned grid.

:func:`repro.core.cosma.received_words` is what that run counts, in closed
form: a plan's predicted words are the count.  The analytic latency
counterpart lives in :mod:`repro.core.cost_model`; COSMA's I/O row is Theorem 2
(:func:`repro.pebbling.mmm_bounds.parallel_io_lower_bound`).
"""

from repro.core.cosma import received_words
from repro.core.cost_model import cosma_latency_cost
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid, fit_ranks

__all__ = [
    "received_words",
    "cosma_latency_cost",
    "build_decomposition",
    "CosmaDecomposition",
    "ProcessorGrid",
    "fit_ranks",
]
