"""Static communication-buffer sizing (sections 7.3 and 7.5).

CARMA allocates progressively larger buffers at every recursion level; COSMA
instead pre-allocates all buffers once, sized for the largest message, and
reuses them every round (optionally double-buffered for communication--
computation overlap).  These helpers compute the buffer sizes for a given
decomposition, from its boundary arrays and step alone, so that tests and the
memory accounting can verify that the whole working set still fits within
``S``.  No engine reads them yet;
memory-aware grid fitting (a grid chosen with the buffers counted) is their
intended consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.decomposition import CosmaDecomposition


@dataclass(frozen=True)
class BufferPlan:
    """Word counts of the statically allocated buffers of one rank."""

    a_receive_words: int
    b_receive_words: int
    c_accumulator_words: int
    double_buffered: bool

    @property
    def communication_words(self) -> int:
        factor = 2 if self.double_buffered else 1
        return factor * (self.a_receive_words + self.b_receive_words)

    @property
    def total_words(self) -> int:
        return self.communication_words + self.c_accumulator_words


def plan_buffers(decomposition: CosmaDecomposition, double_buffered: bool = False) -> BufferPlan:
    """Size the static buffers for the *largest* rank of a decomposition.

    Per communication round a rank receives an ``lm x step`` chunk of A and a
    ``step x ln`` chunk of B, and keeps an ``lm x ln`` accumulator of C.  With
    double buffering the receive buffers are duplicated so that round ``t+1``
    can be fetched while round ``t`` is being multiplied (section 7.3).  The
    largest ``lm`` and ``ln`` are the widest parts of the i / j splits.
    """
    lm = int(np.diff(decomposition.i_bounds).max())
    ln = int(np.diff(decomposition.j_bounds).max())
    step = decomposition.step_size
    return BufferPlan(
        a_receive_words=lm * step,
        b_receive_words=ln * step,
        c_accumulator_words=lm * ln,
        double_buffered=double_buffered,
    )


def fits_in_memory(decomposition: CosmaDecomposition, double_buffered: bool = False) -> bool:
    """Whether the statically planned working set fits within the local memory ``S``."""
    plan = plan_buffers(decomposition, double_buffered=double_buffered)
    return plan.total_words <= decomposition.s


def max_overlap_rounds(decomposition: CosmaDecomposition) -> int:
    """The largest number of rounds ``t2 >= t`` that still fits with double buffering.

    Increasing the number of rounds shrinks each round's receive buffers,
    allowing the first multiplication to start earlier (section 7.3, "number
    of rounds").  Returns the decomposition's round count when double
    buffering already fits, otherwise the smallest feasible round count.
    """
    base = decomposition.num_steps
    if fits_in_memory(decomposition, double_buffered=True):
        return base
    plan = plan_buffers(decomposition, double_buffered=False)
    available = decomposition.s - plan.c_accumulator_words
    if available <= 0:
        return base
    per_round_words = plan.a_receive_words + plan.b_receive_words
    # Shrink the per-round chunk until two rounds' worth of buffers fit.
    factor = 1
    while per_round_words // factor * 2 > available and factor < per_round_words:
        factor += 1
    return base * factor
