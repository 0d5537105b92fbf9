"""Tests for the CDAG data structure."""

import pytest

from repro.pebbling.cdag import CDAG


@pytest.fixture
def diamond():
    """a -> b, a -> c, b -> d, c -> d."""
    g = CDAG()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    return g


class TestConstruction:
    def test_add_vertex(self):
        g = CDAG()
        g.add_vertex("x")
        assert "x" in g
        assert len(g) == 1

    def test_add_edge_creates_vertices(self):
        g = CDAG()
        g.add_edge("u", "v")
        assert "u" in g and "v" in g
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = CDAG()
        with pytest.raises(ValueError):
            g.add_edge("x", "x")

    def test_duplicate_edge_not_double_counted(self):
        g = CDAG()
        g.add_edge("u", "v")
        g.add_edge("u", "v")
        assert g.num_edges == 1

    def test_add_edges_bulk(self):
        g = CDAG()
        g.add_edges([("a", "b"), ("b", "c")])
        assert g.num_edges == 2


class TestNavigation:
    def test_parents_children(self, diamond):
        assert diamond.parents("d") == frozenset({"b", "c"})
        assert diamond.children("a") == frozenset({"b", "c"})

    def test_inputs_outputs(self, diamond):
        assert diamond.inputs == frozenset({"a"})
        assert diamond.outputs == frozenset({"d"})

    def test_explicit_outputs(self, diamond):
        diamond.mark_outputs(["b", "d"])
        assert diamond.outputs == frozenset({"b", "d"})

    def test_mark_unknown_output_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.mark_outputs(["zz"])

    def test_computation_vertices(self, diamond):
        assert diamond.computation_vertices == frozenset({"b", "c", "d"})

    def test_ancestors(self, diamond):
        assert diamond.ancestors("d") == {"a", "b", "c"}
        assert diamond.ancestors("a") == set()

    def test_descendants(self, diamond):
        assert diamond.descendants("a") == {"b", "c", "d"}
        assert diamond.descendants("d") == set()

    def test_subgraph_reaching(self, diamond):
        assert diamond.subgraph_vertices_reaching(["b"]) == {"a", "b"}


class TestTopologicalOrder:
    def test_respects_edges(self, diamond):
        order = diamond.topological_order()
        position = {v: i for i, v in enumerate(order)}
        for u, v in diamond.iter_edges():
            assert position[u] < position[v]

    def test_includes_all_vertices(self, diamond):
        assert set(diamond.topological_order()) == diamond.vertices

    def test_cycle_detection(self):
        g = CDAG()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        assert not g.is_acyclic()
        with pytest.raises(ValueError):
            g.topological_order()

    def test_acyclic_true(self, diamond):
        assert diamond.is_acyclic()

