"""CARMA (Demmel et al., 2013): communication-avoiding recursive MMM.

CARMA recursively splits the *largest* of the three dimensions ``m, n, k`` in
half, assigning half of the processors to each half of the problem, until one
processor remains.  The resulting per-processor local domains are near-cubic
(the longest side at most twice the shortest), which is asymptotically optimal
for all shapes but -- as section 6.2 of the paper shows -- communicates up to
``sqrt(3)`` times more than the optimal COSMA domains in the limited-memory
regime, and only supports processor counts that are powers of two (extra ranks
stay idle, mirroring the real implementation's restriction).

The decomposition is built as the executor's int64 table (:func:`carma_table`:
a row per rank, the recursion run level by level as array steps over all
sub-problems of a level); :func:`carma_domains` is that table viewed as
objects.  Execution rides the generic cuboid executor, in both modes: in
``plane`` mode its near-uniform recursive cuboids batch into a handful of
stacked GEMMs (see :mod:`repro.baselines.cuboid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.cuboid import CuboidDomain, cuboid_multiply, table_domains
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import as_operands
from repro.utils.validation import check_positive_int


def largest_power_of_two_at_most(p: int) -> int:
    """The largest power of two ``<= p`` (CARMA's usable processor count)."""
    check_positive_int(p, "p")
    return 1 << (p.bit_length() - 1)


def usable_ranks(m: int, n: int, k: int, p: int) -> int:
    """The ranks a CARMA run of ``m x n x k`` on ``p`` processors uses: a power
    of two, and never more than there are multiplications (a degenerate split
    would leave empty domains)."""
    usable = largest_power_of_two_at_most(p)
    while usable > 1 and usable > m * n * k:
        usable //= 2
    return usable


def carma_table(m: int, n: int, k: int, p: int) -> np.ndarray:
    """The CARMA cuboid of every rank, as a :func:`~repro.baselines.cuboid.domain_table`.

    ``p`` is rounded down to a power of two; at every level the currently
    largest dimension of each sub-problem is halved and its processors split
    evenly between the halves.  The recursion runs level by level: one row
    ``i0, i1, j0, j1, k0, k1`` per sub-problem of the level, ``log2(p)`` array
    steps in all.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    bounds = np.array([[0, m, 0, n, 0, k]], dtype=np.int64)
    for _ in range(carma_recursion_depth(p)):
        each = np.arange(len(bounds))
        # Split the largest dimension; ``argmax`` returns the first maximum:
        # ties broken m, then n, then k, as in the reference implementation.
        split = np.argmax(bounds[:, 1::2] - bounds[:, 0::2], axis=1)
        mid = (bounds[each, 2 * split] + bounds[each, 2 * split + 1]) // 2
        # The two halves interleave, so a sub-problem's row is its first rank
        # in units of the level's ranks per sub-problem.
        bounds = np.repeat(bounds, 2, axis=0)
        bounds[0::2][each, 2 * split + 1] = mid
        bounds[1::2][each, 2 * split] = mid
    return np.column_stack((np.arange(len(bounds)), bounds))


def carma_domains(m: int, n: int, k: int, p: int) -> list[CuboidDomain]:
    """:func:`carma_table` viewed as one :class:`CuboidDomain` per rank."""
    return table_domains(carma_table(m, n, k, p))


@dataclass
class CarmaRunResult:
    """Outcome of a CARMA run."""

    matrix: np.ndarray
    p_used: int
    counters: CommCounters

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()


def carma_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    p: int,
    machine: DistributedMachine | None = None,
    memory_words: int | None = None,
) -> CarmaRunResult:
    """Multiply ``A @ B`` with the CARMA decomposition on a simulated machine."""
    a_matrix, b_matrix, (m, n, k) = as_operands(a_matrix, b_matrix)
    p = check_positive_int(p, "p")
    usable = usable_ranks(m, n, k, p)
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))
    result = cuboid_multiply(a_matrix, b_matrix, carma_table(m, n, k, usable), machine=machine)
    return CarmaRunResult(matrix=result.matrix, p_used=usable, counters=result.counters)


def carma_recursion_depth(p: int) -> int:
    """Number of recursion levels CARMA performs for ``p`` processors."""
    return int(math.log2(largest_power_of_two_at_most(p)))
