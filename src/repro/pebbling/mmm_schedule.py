"""Near-optimal sequential MMM schedule (Listing 1 and section 5.2.7).

The schedule splits the ``m x n`` output into ``a x b`` tiles.  For each tile
it sweeps the ``k`` dimension: it loads the ``a``-element column of A, streams
the ``b``-element row of B one element at a time and updates the ``ab``
partial sums, which stay in fast memory until the tile is stored.  Its peak is
:func:`tile_footprint` red pebbles and its I/O is exactly
:func:`~repro.pebbling.mmm_bounds.schedule_io`.

Two tile-size choices are provided:

* ``square``: ``a = b = floor(sqrt(S + 1)) - 1`` -- the first construction of
  section 5.2.7;
* ``optimal``: the integer solution of ``max ab/(a+b)`` subject to
  ``tile_footprint(a, b) <= S`` (Equation 26 under the footprint the moves
  use).

The schedule runs as pebble-game moves (:meth:`SequentialMMMSchedule.as_pebbling_moves`,
validated by :class:`~repro.pebbling.game.PebbleGame`) and as the numeric
kernel of :mod:`repro.sequential`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.pebbling.game import Move, PebbleMove
from repro.pebbling.mmm_cdag import a_vertex, b_vertex, c_vertex
from repro.utils.validation import check_positive_int


def tile_footprint(a: int, b: int) -> int:
    """Peak red pebbles of the schedule with ``a x b`` tiles: ``ab + a + 2``.

    The tile's ``ab`` partial sums, its ``a``-element A column, one streamed B
    element, and the partial sum ``c(i, j, t)`` that is live next to
    ``c(i, j, t - 1)`` until the older one is freed.
    """
    return a * b + a + 2


def _check_memory(s: int) -> int:
    s = check_positive_int(s, "S")
    if s < tile_footprint(1, 1):
        raise ValueError(f"fast memory S={s} is too small for any MMM tile (need S >= 4)")
    return s


def square_tile_size(s: int) -> int:
    """The square tile size ``a = b = floor(sqrt(S + 1)) - 1``.

    It satisfies the paper's ``(a + 1)^2 <= S + 1``, and so
    ``tile_footprint(a, a) <= S`` for every ``S >= 4``.
    """
    return math.isqrt(_check_memory(s) + 1) - 1


def optimal_tile_sizes(s: int) -> tuple[int, int]:
    """Tiles ``(a, b)`` maximizing ``ab / (a + b)`` subject to ``tile_footprint(a, b) <= S``.

    Exhaustive over ``a`` (the optimum has ``a <= sqrt(S) + 1``), with the
    largest ``b`` that fits; ties keep the smaller ``a``.  ``S`` must be at
    least 4, the footprint of a 1 x 1 tile.
    """
    s = _check_memory(s)
    best = (1, 1)
    for a in range(1, math.isqrt(s) + 2):
        b = (s - tile_footprint(a, 0)) // a
        if b >= 1 and a * b * (best[0] + best[1]) > best[0] * best[1] * (a + b):
            best = (a, b)
    return best


@dataclass(frozen=True)
class SequentialMMMSchedule:
    """Listing 1 on an ``m x n x k`` MMM with ``a x b`` tiles in ``S`` words.

    ``a <= m`` and ``b <= n``: the tiles are clipped to the matrix, and the
    edge tiles of :meth:`tiles` are ragged.
    """

    m: int
    n: int
    k: int
    s: int
    a: int
    b: int

    def tiles(self) -> Iterator[tuple[range, range]]:
        """The ``(rows, cols)`` of every output tile, in row-major order."""
        for i0 in range(0, self.m, self.a):
            for j0 in range(0, self.n, self.b):
                yield range(i0, min(i0 + self.a, self.m)), range(j0, min(j0 + self.b, self.n))

    def required_red_pebbles(self) -> int:
        """Peak fast-memory usage of :meth:`as_pebbling_moves` (at most ``S``)."""
        return tile_footprint(self.a, self.b)

    def as_pebbling_moves(self) -> list[PebbleMove]:
        """Emit the red-blue pebbling of the schedule.

        Per tile and ``t``: load the A column, then for each streamed B element
        compute the tile column's partial sums and free their predecessors;
        after the ``k`` sweep, store and free the outputs.
        """
        moves: list[PebbleMove] = []
        for rows, cols in self.tiles():
            for t in range(self.k):
                moves.extend(PebbleMove(Move.LOAD, a_vertex(i, t)) for i in rows)
                for j in cols:
                    moves.append(PebbleMove(Move.LOAD, b_vertex(t, j)))
                    for i in rows:
                        moves.append(PebbleMove(Move.COMPUTE, c_vertex(i, j, t)))
                        if t > 0:
                            moves.append(PebbleMove(Move.FREE_RED, c_vertex(i, j, t - 1)))
                    moves.append(PebbleMove(Move.FREE_RED, b_vertex(t, j)))
                moves.extend(PebbleMove(Move.FREE_RED, a_vertex(i, t)) for i in rows)
            for i in rows:
                for j in cols:
                    moves.append(PebbleMove(Move.STORE, c_vertex(i, j, self.k - 1)))
                    moves.append(PebbleMove(Move.FREE_RED, c_vertex(i, j, self.k - 1)))
        return moves


def sequential_mmm_schedule(
    m: int,
    n: int,
    k: int,
    s: int,
    tile: str = "optimal",
) -> SequentialMMMSchedule:
    """Build the near I/O optimal sequential schedule of Listing 1.

    Parameters
    ----------
    m, n, k:
        Matrix dimensions (``A`` is ``m x k``, ``B`` is ``k x n``).
    s:
        Fast-memory size in words.
    tile:
        ``"optimal"`` uses :func:`optimal_tile_sizes`; ``"square"`` uses
        :func:`square_tile_size` for both dimensions.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    if tile == "optimal":
        a, b = optimal_tile_sizes(s)
    elif tile == "square":
        a = b = square_tile_size(s)
    else:
        raise ValueError(f"unknown tile strategy {tile!r}; use 'optimal' or 'square'")
    return SequentialMMMSchedule(m=m, n=n, k=k, s=s, a=min(a, m), b=min(b, n))
