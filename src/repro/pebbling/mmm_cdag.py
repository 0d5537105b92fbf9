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
"""

from __future__ import annotations

from repro.pebbling.cdag import CDAG
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


def build_mmm_cdag(m: int, n: int, k: int) -> CDAG:
    """Construct the MMM CDAG for ``C = A @ B`` with ``A (m x k)`` and ``B (k x n)``.

    The graph has ``mk + kn + mnk`` vertices; keep the dimensions small (a few
    tens) when building it explicitly -- the I/O of realistic problem sizes is
    the closed form :func:`repro.pebbling.mmm_bounds.schedule_io`, not an
    explicit graph.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    cdag = CDAG()
    for i in range(m):
        for t in range(k):
            cdag.add_vertex(a_vertex(i, t))
    for t in range(k):
        for j in range(n):
            cdag.add_vertex(b_vertex(t, j))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                v = c_vertex(i, j, t)
                cdag.add_edge(a_vertex(i, t), v)
                cdag.add_edge(b_vertex(t, j), v)
                if t > 0:
                    cdag.add_edge(c_vertex(i, j, t - 1), v)
    cdag.mark_outputs(c_vertex(i, j, k - 1) for i in range(m) for j in range(n))
    return cdag
