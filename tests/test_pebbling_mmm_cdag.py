"""Tests for the MMM CDAG construction and projections."""

import pytest

from repro.pebbling.mmm_cdag import (
    a_vertex,
    b_vertex,
    build_mmm_cdag,
    c_vertex,
    phi_a,
    phi_b,
    phi_c,
)


class TestVerticesAndEdges:
    def test_vertex_count(self):
        mmm = build_mmm_cdag(2, 3, 4)
        # mk + kn + mnk
        assert mmm.num_vertices == 2 * 4 + 4 * 3 + 2 * 3 * 4

    def test_multiplication_count(self):
        mmm = build_mmm_cdag(3, 2, 5)
        assert mmm.num_multiplications == 30

    def test_inputs_are_a_and_b(self):
        mmm = build_mmm_cdag(2, 2, 2)
        inputs = mmm.cdag.inputs
        assert a_vertex(0, 0) in inputs
        assert b_vertex(1, 1) in inputs
        assert c_vertex(0, 0, 0) not in inputs

    def test_outputs_are_final_partial_sums(self):
        mmm = build_mmm_cdag(2, 2, 3)
        assert mmm.cdag.outputs == mmm.output_vertices()
        assert c_vertex(0, 0, 2) in mmm.cdag.outputs
        assert c_vertex(0, 0, 1) not in mmm.cdag.outputs

    def test_first_partial_sum_has_two_parents(self):
        mmm = build_mmm_cdag(2, 2, 2)
        parents = mmm.cdag.parents(c_vertex(1, 0, 0))
        assert parents == frozenset({a_vertex(1, 0), b_vertex(0, 0)})

    def test_later_partial_sum_has_three_parents(self):
        mmm = build_mmm_cdag(2, 2, 2)
        parents = mmm.cdag.parents(c_vertex(1, 0, 1))
        assert parents == frozenset({a_vertex(1, 1), b_vertex(1, 0), c_vertex(1, 0, 0)})

    def test_partial_sum_chain_has_single_child(self):
        mmm = build_mmm_cdag(2, 2, 3)
        children = mmm.cdag.children(c_vertex(0, 1, 0))
        assert children == frozenset({c_vertex(0, 1, 1)})

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            build_mmm_cdag(0, 2, 2)

    def test_iterators_cover_all(self):
        mmm = build_mmm_cdag(2, 3, 2)
        assert len(list(mmm.a_vertices())) == 4
        assert len(list(mmm.b_vertices())) == 6
        assert len(list(mmm.c_vertices())) == 12


class TestProjections:
    def test_phi_a(self):
        assert phi_a(c_vertex(3, 5, 7)) == a_vertex(3, 7)

    def test_phi_b(self):
        assert phi_b(c_vertex(3, 5, 7)) == b_vertex(7, 5)

    def test_phi_c_drops_k_index(self):
        assert phi_c(c_vertex(3, 5, 7)) == (3, 5)
        assert phi_c(c_vertex(3, 5, 6)) == phi_c(c_vertex(3, 5, 7))

    def test_projections_of_outer_product_step(self):
        mmm = build_mmm_cdag(3, 2, 4)
        subset = {c_vertex(i, j, 1) for i in range(3) for j in range(2)}
        alpha, beta, gamma = mmm.projections(subset)
        assert alpha == {a_vertex(i, 1) for i in range(3)}
        assert beta == {b_vertex(1, j) for j in range(2)}
        assert gamma == {(i, j) for i in range(3) for j in range(2)}

    def test_loomis_whitney_inequality_holds(self):
        # |V_r| <= sqrt(|alpha| |beta| |gamma|) for any subcomputation.
        mmm = build_mmm_cdag(3, 3, 3)
        subset = {c_vertex(i, j, t) for i in range(2) for j in range(3) for t in range(2)}
        alpha, beta, gamma = mmm.projections(subset)
        assert len(subset) ** 2 <= len(alpha) * len(beta) * len(gamma)
