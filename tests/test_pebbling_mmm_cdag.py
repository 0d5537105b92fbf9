"""Tests for the MMM CDAG construction."""

import pytest

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
