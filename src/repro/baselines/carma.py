"""CARMA (Demmel et al., 2013): communication-avoiding recursive MMM.

CARMA recursively splits the *largest* of the three dimensions ``m, n, k`` in
half, assigning half of the processors to each half of the problem, until one
processor remains.  The resulting per-processor local domains are near-cubic
(the longest side at most twice the shortest), which is asymptotically optimal
for all shapes but -- as section 6.2 of the paper shows -- communicates up to
``sqrt(3)`` times more than the optimal COSMA domains in the limited-memory
regime, and only supports processor counts that are powers of two (extra ranks
stay idle, mirroring the real implementation's restriction).

Execution rides the generic cuboid executor, so CARMA participates in every
transport mode -- including the stacked-array ``plane`` engine, where its
near-uniform recursive cuboids batch into a handful of stacked GEMMs (see
:mod:`repro.baselines.cuboid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.cuboid import CuboidDomain, CuboidRunResult, cuboid_multiply
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import as_payload
from repro.utils.validation import check_positive_int

Range = tuple[int, int]


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


def _split_range(r: Range) -> tuple[Range, Range]:
    lo, hi = r
    mid = (lo + hi) // 2
    return (lo, mid), (mid, hi)


def carma_domains(m: int, n: int, k: int, p: int) -> list[CuboidDomain]:
    """Recursively derive the CARMA cuboid of every rank.

    ``p`` is rounded down to a power of two; at every level the currently
    largest dimension of the sub-problem is halved and the processors split
    evenly between the halves.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    p = check_positive_int(p, "p")
    usable = largest_power_of_two_at_most(p)

    domains: list[CuboidDomain] = []

    def recurse(i_range: Range, j_range: Range, k_range: Range, ranks: Range) -> None:
        lo, hi = ranks
        count = hi - lo
        if count == 1:
            domains.append(
                CuboidDomain(rank=lo, i_range=i_range, j_range=j_range, k_range=k_range)
            )
            return
        extents = {
            "m": i_range[1] - i_range[0],
            "n": j_range[1] - j_range[0],
            "k": k_range[1] - k_range[0],
        }
        # Split the largest dimension (ties broken m, then n, then k, as in the
        # reference implementation).
        dimension = max(extents, key=lambda d: (extents[d], d == "m", d == "n"))
        mid_ranks = (lo + hi) // 2
        if dimension == "m":
            first, second = _split_range(i_range)
            recurse(first, j_range, k_range, (lo, mid_ranks))
            recurse(second, j_range, k_range, (mid_ranks, hi))
        elif dimension == "n":
            first, second = _split_range(j_range)
            recurse(i_range, first, k_range, (lo, mid_ranks))
            recurse(i_range, second, k_range, (mid_ranks, hi))
        else:
            first, second = _split_range(k_range)
            recurse(i_range, j_range, first, (lo, mid_ranks))
            recurse(i_range, j_range, second, (mid_ranks, hi))

    recurse((0, m), (0, n), (0, k), (0, usable))
    return domains


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
    a_matrix = as_payload(a_matrix)
    b_matrix = as_payload(b_matrix)
    m, k = a_matrix.shape
    k2, n = b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")
    p = check_positive_int(p, "p")
    usable = usable_ranks(m, n, k, p)
    domains = carma_domains(m, n, k, usable)
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))
    result: CuboidRunResult = cuboid_multiply(a_matrix, b_matrix, domains, machine=machine)
    return CarmaRunResult(matrix=result.matrix, p_used=usable, counters=result.counters)


def carma_recursion_depth(p: int) -> int:
    """Number of recursion levels CARMA performs for ``p`` processors."""
    return int(math.log2(largest_power_of_two_at_most(p)))
