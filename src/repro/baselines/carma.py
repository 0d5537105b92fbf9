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
objects, and :func:`carma_messages` the messages its runs post, memoized
beside it.  Execution is the generic cuboid executor on that table and those
messages, :func:`~repro.baselines.cuboid.cuboid_run`, in both modes: in
``plane`` mode the cuboids that split one output block along k run as one
GEMM over the block's merged k-range (see :mod:`repro.baselines.cuboid`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.baselines.cuboid import CuboidDomain, Messages, owner_messages, table_domains, validate_domains
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


@lru_cache(maxsize=4096)  # as deep as the plan memo, cleared with it
def carma_table(m: int, n: int, k: int, p: int) -> np.ndarray:
    """The CARMA cuboid of every rank, as a :func:`~repro.baselines.cuboid.domain_table`,
    memoized and read-only.

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
    for _ in range(largest_power_of_two_at_most(p).bit_length() - 1):
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
    table = np.column_stack((np.arange(len(bounds)), bounds))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4096)  # as deep as carma_table, cleared with it
def carma_messages(m: int, n: int, k: int, p: int) -> Messages:
    """The messages a run of :func:`carma_table` posts
    (:func:`~repro.baselines.cuboid.owner_messages`), memoized and read-only.

    The plan's rounds and every run of the table read this one copy, and the
    table's tiling is checked here, once.  A campaign plans every request
    before it forks its workers, so they inherit the messages; a worker that
    inherits nothing (any start method but fork) computes them itself.
    """
    table = carma_table(m, n, k, p)
    validate_domains(m, n, k, table)
    messages = owner_messages(table)
    for triple in messages:
        for array in triple:
            array.flags.writeable = False
    return messages


def carma_domains(m: int, n: int, k: int, p: int) -> list[CuboidDomain]:
    """:func:`carma_table` viewed as one :class:`CuboidDomain` per rank."""
    return table_domains(carma_table(m, n, k, p))

