"""Tests for the MMM CDAG construction."""

import itertools

import pytest

from repro.pebbling.cdag import CDAG
from repro.pebbling.mmm_cdag import a_vertex, b_vertex, build_mmm_cdag, c_vertex


class TestVerticesAndEdges:
    def test_vertex_count(self):
        cdag = build_mmm_cdag(2, 3, 4)
        # mk + kn + mnk
        assert len(cdag) == 2 * 4 + 4 * 3 + 2 * 3 * 4

    def test_multiplication_count(self):
        cdag = build_mmm_cdag(3, 2, 5)
        assert len(cdag.computation_vertices) == 30

    def test_inputs_are_a_and_b(self):
        inputs = build_mmm_cdag(2, 2, 2).inputs
        assert a_vertex(0, 0) in inputs
        assert b_vertex(1, 1) in inputs
        assert c_vertex(0, 0, 0) not in inputs

    def test_outputs_are_final_partial_sums(self):
        cdag = build_mmm_cdag(2, 2, 3)
        assert cdag.outputs == {c_vertex(i, j, 2) for i in range(2) for j in range(2)}
        assert c_vertex(0, 0, 2) in cdag.outputs
        assert c_vertex(0, 0, 1) not in cdag.outputs

    def test_first_partial_sum_has_two_parents(self):
        parents = build_mmm_cdag(2, 2, 2).parents(c_vertex(1, 0, 0))
        assert parents == frozenset({a_vertex(1, 0), b_vertex(0, 0)})

    def test_later_partial_sum_has_three_parents(self):
        parents = build_mmm_cdag(2, 2, 2).parents(c_vertex(1, 0, 1))
        assert parents == frozenset({a_vertex(1, 1), b_vertex(1, 0), c_vertex(1, 0, 0)})

    def test_partial_sum_chain_has_single_child(self):
        children = build_mmm_cdag(2, 2, 3).children(c_vertex(0, 1, 0))
        assert children == frozenset({c_vertex(0, 1, 1)})

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            build_mmm_cdag(0, 2, 2)


def _explicit_mmm_cdag(m, n, k):
    """The MMM CDAG as edges on the generic CDAG: the reference the closed form is held to."""
    g = CDAG()
    for i, t in itertools.product(range(m), range(k)):
        g.add_vertex(a_vertex(i, t))
    for t, j in itertools.product(range(k), range(n)):
        g.add_vertex(b_vertex(t, j))
    for i, j, t in itertools.product(range(m), range(n), range(k)):
        g.add_edge(a_vertex(i, t), c_vertex(i, j, t))
        g.add_edge(b_vertex(t, j), c_vertex(i, j, t))
        if t:
            g.add_edge(c_vertex(i, j, t - 1), c_vertex(i, j, t))
    g.mark_outputs(c_vertex(i, j, k - 1) for i in range(m) for j in range(n))
    return g


class TestClosedForm:
    @pytest.mark.parametrize("m,n,k", [(1, 1, 1), (2, 3, 4), (3, 1, 2)])
    def test_equals_the_explicit_graph(self, m, n, k):
        explicit, closed = _explicit_mmm_cdag(m, n, k), build_mmm_cdag(m, n, k)
        assert len(closed) == len(explicit)
        assert closed.inputs == explicit.inputs
        assert closed.outputs == explicit.outputs
        assert closed.computation_vertices == explicit.computation_vertices
        for v in explicit.vertices:
            assert v in closed
            assert closed.parents(v) == explicit.parents(v)
            assert closed.children(v) == explicit.children(v)

    @pytest.mark.parametrize("v", [("c", 0, 0, 2), ("a", 2, 0), ("b", 0, 3), ("c", -1, 0, 0),
                                   ("c", 0, 0), ("d", 0, 0), "c"])
    def test_rejects_vertices_outside_the_graph(self, v):
        closed = build_mmm_cdag(2, 3, 2)
        assert v not in closed
        with pytest.raises(KeyError):
            closed.parents(v)
        with pytest.raises(KeyError):
            closed.children(v)
