"""Data layouts: blocked (COSMA) and block-cyclic (ScaLAPACK) distributions.

COSMA's schedule induces a *blocked* initial layout (section 7.6): each rank
owns a contiguous sub-block of every matrix it touches, and the blocks are
arranged so that ranks which communicate first own neighbouring blocks.  For
compatibility with the rest of the linear-algebra ecosystem the library also
implements the ScaLAPACK block-cyclic layout and counted redistribution
between any two layouts.

No engine imports these modules (the decompositions carry their own blocked
ownership); they are kept for the section-7.6 layout ablation,
``benchmarks/bench_ablation_layout.py``.
"""

from repro.layouts.blocked import BlockedLayout
from repro.layouts.block_cyclic import BlockCyclicLayout
from repro.layouts.conversion import redistribute, redistribution_volume

__all__ = [
    "BlockedLayout",
    "BlockCyclicLayout",
    "redistribute",
    "redistribution_volume",
]
