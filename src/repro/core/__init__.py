"""COSMA: the paper's primary contribution.

The pipeline mirrors Algorithm 1:

1. :func:`repro.core.grid.fit_ranks` fits a processor grid to the matrix
   dimensions, optionally leaving up to ``delta`` of the processors idle
   (section 7.1): among the grids whose C block and a one-wide panel step
   fit in S, the one whose busiest domain touches the fewest words
   (:func:`repro.core.grid.domain_io_words`, the quantity Theorem 2 bounds;
   Equation 32's real-valued ``[a x a x b]`` domain attains it).
2. :func:`repro.core.decomposition.build_decomposition` assigns local domains,
   the blocked data layout (section 7.6) and the latency-minimizing step.
3. :func:`repro.core.cosma.cosma_run` executes that decomposition on the
   distributed machine simulator, counting every communicated word; the
   registered COSMA runner (:mod:`repro.algorithms.builtins`) is steps 1-3
   on the planned grid.

:func:`repro.core.cosma.received_words` and
:func:`repro.core.cosma.counted_rounds` are what that run counts, in closed
form: a plan's predicted words and rounds are the count, and
:mod:`repro.experiments.perf_model` prices what the run counted.  COSMA's I/O row of
Table 3 is Theorem 2 (:func:`repro.pebbling.mmm_bounds.parallel_io_lower_bound`).
"""

from repro.core.cosma import counted_rounds, received_words
from repro.core.decomposition import CosmaDecomposition, build_decomposition
from repro.core.grid import ProcessorGrid, fit_ranks

__all__ = [
    "received_words",
    "counted_rounds",
    "build_decomposition",
    "CosmaDecomposition",
    "ProcessorGrid",
    "fit_ranks",
]
