"""Computational directed acyclic graphs (CDAGs).

A CDAG ``G = (V, E)`` models an execution of an algorithm (section 2.2 of the
paper): every vertex is one elementary operation (or an input value), and an
edge ``(u, v)`` says that ``v`` consumes the result of ``u``.  Inputs are
vertices without parents; outputs are vertices without children (or vertices
explicitly marked as outputs).

The class is a thin, dependency-free adjacency structure: construction and
the parent / child, input / output queries the pebble game and the partition
analysis read.
"""

from __future__ import annotations

from typing import Hashable, Iterable

Vertex = Hashable


class CDAG:
    """A computational DAG with parent/child navigation.

    Vertices are arbitrary hashable objects.  Edges are added with
    :meth:`add_edge`; isolated vertices with :meth:`add_vertex`.
    """

    def __init__(self) -> None:
        self._parents: dict[Vertex, set[Vertex]] = {}
        self._children: dict[Vertex, set[Vertex]] = {}
        self._explicit_outputs: set[Vertex] | None = None

    # -- construction ------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        self._parents.setdefault(v, set())
        self._children.setdefault(v, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add edge ``u -> v`` (v depends on u); vertices are created as needed."""
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r} is not allowed in a DAG")
        self.add_vertex(u)
        self.add_vertex(v)
        self._parents[v].add(u)
        self._children[u].add(v)

    def mark_outputs(self, outputs: Iterable[Vertex]) -> None:
        """Explicitly designate the output set ``O`` (otherwise: childless vertices)."""
        outputs = set(outputs)
        missing = [v for v in outputs if v not in self._parents]
        if missing:
            raise KeyError(f"cannot mark unknown vertices as outputs: {missing!r}")
        self._explicit_outputs = outputs

    # -- basic queries -------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset(self._parents)

    def parents(self, v: Vertex) -> frozenset[Vertex]:
        """``Pred(v)``: immediate predecessors of ``v``."""
        return frozenset(self._parents[v])

    def children(self, v: Vertex) -> frozenset[Vertex]:
        """``Succ(v)``: immediate successors of ``v``."""
        return frozenset(self._children[v])

    @property
    def inputs(self) -> frozenset[Vertex]:
        """Vertices without parents (the input set ``I``)."""
        return frozenset(v for v, ps in self._parents.items() if not ps)

    @property
    def outputs(self) -> frozenset[Vertex]:
        """The output set ``O``: explicitly marked outputs, else childless vertices."""
        if self._explicit_outputs is not None:
            return frozenset(self._explicit_outputs)
        return frozenset(v for v, cs in self._children.items() if not cs)

    @property
    def computation_vertices(self) -> frozenset[Vertex]:
        """Non-input vertices, i.e. vertices that must be computed."""
        return self.vertices - self.inputs
