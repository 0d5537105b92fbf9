"""The I/O-latency trade-off (end of section 6.3).

For a local domain of width ``a`` (with ``a <= sqrt(S)``) the per-processor
I/O and latency costs are::

    Q(a) = 2 m n k / (p a) + a^2
    L(a) = 2 m n k / (p a (S - a^2))

Growing ``a`` reduces I/O but increases latency (fewer words fit alongside the
larger accumulator, so more rounds are needed).  COSMA by default minimizes
``Q`` and spends any spare memory on reducing ``L``; these helpers expose the
whole trade-off curve for ``benchmarks/bench_theorem2_parallel.py``.  No
engine reads them yet; memory-aware grid fitting is their intended consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the I/O-latency trade-off curve."""

    a: float
    io_cost: float
    latency_cost: float
    rounds: int


def io_cost(m: int, n: int, k: int, p: int, a: float) -> float:
    """``Q(a) = 2mnk / (pa) + a^2``."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return 2.0 * float(m) * n * k / (p * a) + a * a


def latency_cost(m: int, n: int, k: int, p: int, s: int, a: float) -> float:
    """``L(a) = 2mnk / (p a (S - a^2))``; infinite when ``a^2 >= S``."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    free = s - a * a
    if free <= 0:
        return math.inf
    return 2.0 * float(m) * n * k / (p * a * free)


def tradeoff_curve(
    m: int, n: int, k: int, p: int, s: int, samples: int = 32
) -> list[TradeoffPoint]:
    """Sample the trade-off curve for ``a`` in ``[1, sqrt(S)]``."""
    check_positive_int(samples, "samples")
    s = check_positive_int(s, "S")
    a_max = math.sqrt(s)
    points: list[TradeoffPoint] = []
    for index in range(samples):
        a = 1.0 + (a_max - 1.0) * index / max(1, samples - 1)
        q = io_cost(m, n, k, p, a)
        lat = latency_cost(m, n, k, p, s, a)
        b = float(m) * n * k / (p * a * a)
        free = s - a * a
        rounds = int(math.ceil(2.0 * a * b / free)) if free > 0 else int(b)
        points.append(TradeoffPoint(a=a, io_cost=q, latency_cost=lat, rounds=max(1, rounds)))
    return points


def min_io_point(m: int, n: int, k: int, p: int, s: int) -> TradeoffPoint:
    """The trade-off point COSMA picks by default: minimal I/O, ``a = min(sqrt(S), (mnk/p)^(1/3))``."""
    a = min(math.sqrt(s), (float(m) * n * k / p) ** (1.0 / 3.0))
    q = io_cost(m, n, k, p, a)
    lat = latency_cost(m, n, k, p, s, a)
    b = float(m) * n * k / (p * a * a)
    free = s - a * a
    rounds = int(math.ceil(2.0 * a * b / free)) if free > 0 else int(max(1.0, b))
    return TradeoffPoint(a=a, io_cost=q, latency_cost=lat, rounds=max(1, rounds))
