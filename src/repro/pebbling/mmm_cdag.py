"""The matrix-matrix multiplication CDAG (section 5.1).

Vertices (0-based indices, unlike the paper's 1-based notation):

* ``("a", i, t)`` -- element ``A[i, t]`` of the ``m x k`` input matrix,
* ``("b", t, j)`` -- element ``B[t, j]`` of the ``k x n`` input matrix,
* ``("c", i, j, t)`` -- the ``t``-th partial sum of output element ``C[i, j]``,
  for ``t = 0, ..., k-1``; the final partial sum ``("c", i, j, k-1)`` is the
  output vertex.

Edges: the update ``C(i,j,t) = C(i,j,t-1) + A(i,t) * B(t,j)`` contributes
edges from ``("a", i, t)``, ``("b", t, j)`` and (for ``t > 0``)
``("c", i, j, t-1)`` into ``("c", i, j, t)``.

The graph is a function of ``(m, n, k)``, so :class:`MMMCDAG` answers the
queries of :class:`~repro.pebbling.cdag.CDAG` that the pebble game reads from
the indices alone and stores no vertex or edge: a game on it holds only its
pebbles.
"""

from __future__ import annotations

from itertools import chain

from repro.utils.validation import check_positive_int

AVertex = tuple[str, int, int]
BVertex = tuple[str, int, int]
CVertex = tuple[str, int, int, int]


def a_vertex(i: int, t: int) -> AVertex:
    """Vertex for ``A[i, t]``."""
    return ("a", i, t)


def b_vertex(t: int, j: int) -> BVertex:
    """Vertex for ``B[t, j]``."""
    return ("b", t, j)


def c_vertex(i: int, j: int, t: int) -> CVertex:
    """Vertex for the ``t``-th partial sum of ``C[i, j]``."""
    return ("c", i, j, t)


class MMMCDAG:
    """The ``mk + kn + mnk``-vertex MMM CDAG, computed from ``(m, n, k)``.

    It answers membership, ``len``, :meth:`parents`, :meth:`children`,
    :attr:`inputs`, :attr:`outputs` and :attr:`computation_vertices` as the
    explicit :class:`~repro.pebbling.cdag.CDAG` of the same graph would.
    """

    def __init__(self, m: int, n: int, k: int) -> None:
        self.m, self.n, self.k = m, n, k
        self._rows, self._cols, self._depth = range(m), range(n), range(k)

    def __len__(self) -> int:
        return self.m * self.k + self.k * self.n + self.m * self.n * self.k

    def __contains__(self, v: object) -> bool:
        if type(v) is not tuple:
            return False
        if len(v) == 4:
            kind, i, j, t = v
            return kind == "c" and i in self._rows and j in self._cols and t in self._depth
        if len(v) == 3:
            kind, x, y = v
            if kind == "a":
                return x in self._rows and y in self._depth
            if kind == "b":
                return x in self._depth and y in self._cols
        return False

    def _check(self, v: object) -> None:
        if v not in self:
            raise KeyError(f"vertex {v!r} is not part of the CDAG")

    def parents(self, v: object) -> frozenset:
        """``Pred(v)``: ``A(i,t)``, ``B(t,j)`` and ``C(i,j,t-1)`` of a partial sum."""
        if type(v) is tuple and len(v) == 4:  # the game's hot path: one check per compute
            kind, i, j, t = v
            if kind == "c" and i in self._rows and j in self._cols and t in self._depth:
                if t:
                    return frozenset((("a", i, t), ("b", t, j), ("c", i, j, t - 1)))
                return frozenset((("a", i, t), ("b", t, j)))
        self._check(v)
        return frozenset()

    def children(self, v: object) -> frozenset:
        """``Succ(v)``: the partial sums an input element feeds, or the next partial sum."""
        self._check(v)
        if len(v) == 4:
            _, i, j, t = v
            return frozenset({("c", i, j, t + 1)} if t + 1 < self.k else ())
        kind, x, y = v
        if kind == "a":
            return frozenset(("c", x, j, y) for j in self._cols)
        return frozenset(("c", i, y, x) for i in self._rows)

    @property
    def inputs(self) -> frozenset:
        """The elements of ``A`` and ``B``."""
        return frozenset(chain((a_vertex(i, t) for i in self._rows for t in self._depth),
                               (b_vertex(t, j) for t in self._depth for j in self._cols)))

    @property
    def outputs(self) -> frozenset:
        """The final partial sums ``C(i, j, k - 1)``."""
        return frozenset(c_vertex(i, j, self.k - 1) for i in self._rows for j in self._cols)

    @property
    def computation_vertices(self) -> frozenset:
        """Every partial sum ``C(i, j, t)``."""
        return frozenset(c_vertex(i, j, t) for i in self._rows for j in self._cols for t in self._depth)


def build_mmm_cdag(m: int, n: int, k: int) -> MMMCDAG:
    """The MMM CDAG for ``C = A @ B`` with ``A (m x k)`` and ``B (k x n)``."""
    return MMMCDAG(check_positive_int(m, "m"), check_positive_int(n, "n"), check_positive_int(k, "k"))
