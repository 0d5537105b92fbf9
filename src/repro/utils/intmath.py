"""Integer arithmetic helpers used throughout the COSMA reproduction.

The processor-grid fitting (section 7.1 of the paper) and all the
decomposition code rely on exact integer factorizations and even splits, so
these helpers are kept free of any dependency but numpy and exhaustively
unit-tested.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` using only integer arithmetic.

    Parameters
    ----------
    a:
        Non-negative numerator.
    b:
        Positive denominator.
    """
    if b <= 0:
        raise ValueError(f"ceil_div requires a positive denominator, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires a non-negative numerator, got {a}")
    return -(-a // b)


def divisors(n: int) -> list[int]:
    """Return all positive divisors of ``n`` in increasing order."""
    if n <= 0:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def all_factorizations_3d(p: int) -> Iterator[tuple[int, int, int]]:
    """Yield every ordered triple ``(pm, pn, pk)`` with ``pm * pn * pk == p``.

    Used to enumerate candidate processor grids when fitting ranks to matrix
    dimensions (section 7.1).  The number of such triples is
    ``d_3(p)`` which stays small for realistic processor counts.
    """
    if p <= 0:
        raise ValueError(f"all_factorizations_3d requires p >= 1, got {p}")
    for pm in divisors(p):
        rest = p // pm
        for pn in divisors(rest):
            yield (pm, pn, rest // pn)


def split_evenly(extent: int, parts: int) -> list[int]:
    """Split ``extent`` items into ``parts`` contiguous chunks as evenly as possible.

    Returns a list of chunk sizes summing to ``extent``; the first
    ``extent % parts`` chunks are one element larger.  This matches how the
    decomposition code assigns trailing "boundary" rows/columns.
    """
    if parts <= 0:
        raise ValueError(f"split_evenly requires parts >= 1, got {parts}")
    if extent < 0:
        raise ValueError(f"split_evenly requires extent >= 0, got {extent}")
    base, extra = divmod(extent, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def split_offsets(extent: int, parts: int) -> list[tuple[int, int]]:
    """Return ``(start, stop)`` index ranges for :func:`split_evenly`."""
    sizes = split_evenly(extent, parts)
    offsets: list[tuple[int, int]] = []
    start = 0
    for size in sizes:
        offsets.append((start, start + size))
        start += size
    return offsets


def sorted_distinct(values) -> np.ndarray:
    """The distinct entries of an integer array, ascending: a sort and a
    neighbour mask.  What plain ``np.unique(values)`` returns, without the
    ``numpy.ma`` import its first call in a process pays for (about 20 ms)."""
    ordered = np.sort(values, axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def abutting_runs(
    lo: np.ndarray, hi: np.ndarray, keys: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge consecutive ranges ``[lo[i], hi[i])`` into maximal runs in which
    each range starts where the previous one ends (and, given ``keys``, whose
    ``keys`` rows are equal); returns every run's first index, start and end."""
    edges = np.ones(lo.size + 1, dtype=bool)  # a run starts, or the ranges end
    edges[1:-1] = lo[1:] != hi[:-1]
    if keys is not None:
        edges[1:-1] |= (keys[1:] != keys[:-1]).any(axis=1)
    edges = np.flatnonzero(edges)
    return edges[:-1], lo[edges[:-1]], hi[edges[1:] - 1]
