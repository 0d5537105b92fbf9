"""Integer arithmetic helpers used throughout the COSMA reproduction.

The processor-grid fitting (section 7.1 of the paper) and all the
decomposition code rely on exact integer factorizations and even splits, so
these helpers are kept free of any dependency but numpy and exhaustively
unit-tested.
"""

from __future__ import annotations

import math
from functools import reduce
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


def prod(values) -> int:
    """Product of an iterable of integers (1 for an empty iterable)."""
    return reduce(lambda x, y: x * y, values, 1)


def isqrt_floor(n: int) -> int:
    """Floor of the integer square root of ``n`` (n >= 0)."""
    if n < 0:
        raise ValueError(f"isqrt_floor requires n >= 0, got {n}")
    return math.isqrt(n)


def factorize(n: int) -> dict[int, int]:
    """Return the prime factorization of ``n`` as ``{prime: exponent}``.

    Trial division is sufficient here: processor counts in the experiments are
    at most a few tens of thousands.
    """
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors[divisor] = factors.get(divisor, 0) + 1
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


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


def nearly_equal(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Relative/absolute float comparison used in cost-model tests."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def round_to_multiple(value: int, multiple: int, up: bool = True) -> int:
    """Round ``value`` to the nearest multiple of ``multiple`` (up or down)."""
    if multiple <= 0:
        raise ValueError(f"round_to_multiple requires multiple >= 1, got {multiple}")
    if value < 0:
        raise ValueError(f"round_to_multiple requires value >= 0, got {value}")
    if up:
        return ceil_div(value, multiple) * multiple
    return (value // multiple) * multiple


def closest_divisor(n: int, target: int) -> int:
    """Return the divisor of ``n`` closest to ``target`` (ties resolved downward).

    Grid fitting uses this to snap an ideal (real-valued) grid dimension onto a
    divisor of the processor count.
    """
    if target <= 0:
        raise ValueError(f"closest_divisor requires target >= 1, got {target}")
    best = 1
    best_distance = abs(target - 1)
    for d in divisors(n):
        distance = abs(d - target)
        if distance < best_distance or (distance == best_distance and d < best):
            best = d
            best_distance = distance
    return best


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
