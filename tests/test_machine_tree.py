"""Tests for the broadcast trees (section 7.2): the binomial tree the engines
count, and the topology-aware ones."""

import pytest
from oracle.collectives import broadcast_hops

from repro.core.cosma import _fan_levels
from repro.machine.tree import (
    binomial_tree,
    compare_trees,
    grid_distance,
    node_distance,
    topology_aware_tree,
)


class TestBinomialTree:
    def test_all_ranks_attached(self):
        tree = binomial_tree(list(range(8)), root=0)
        assert set(tree.parent) == set(range(1, 8))

    def test_depth_is_log_p(self):
        tree = binomial_tree(list(range(8)), root=0)
        assert tree.depth() == 3

    def test_arbitrary_root(self):
        tree = binomial_tree([3, 5, 9, 11], root=9)
        assert tree.root == 9
        assert set(tree.parent) == {3, 5, 11}

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            binomial_tree([0, 1, 2], root=7)

    def test_single_rank(self):
        tree = binomial_tree([4], root=4)
        assert tree.parent == {}
        assert tree.depth() == 0

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 6, 7, 8, 13, 64, 100])
    def test_fanout_is_the_per_hop_broadcast(self, q):
        """The engines' tree levels send what the per-hop reference's broadcast
        hops (written out independently) send, position by position, and
        those hops build the binomial tree."""
        fanout = [0] * q
        for src, _ in broadcast_hops(q):
            fanout[src] += 1
        senders, messages = _fan_levels("tree", q)
        assert [int(messages[pos < senders].sum()) for pos in range(q)] == fanout
        assert binomial_tree(range(q), 0).parent == {dst: src for src, dst in broadcast_hops(q)}


class TestDistances:
    def test_grid_distance_neighbours(self):
        dist = grid_distance((2, 2, 2))
        # rank 0 = (0,0,0), rank 1 = (0,0,1): one hop along k.
        assert dist(0, 1) == 1.0
        # rank 0 = (0,0,0), rank 7 = (1,1,1): three hops.
        assert dist(0, 7) == 3.0

    def test_grid_distance_symmetric(self):
        dist = grid_distance((3, 4, 2))
        for a in range(0, 24, 5):
            for b in range(0, 24, 7):
                assert dist(a, b) == dist(b, a)

    def test_node_distance(self):
        dist = node_distance(4)
        assert dist(0, 3) == 0.0
        assert dist(0, 4) == 1.0


class TestTopologyAwareTree:
    def test_all_ranks_attached(self):
        dist = grid_distance((2, 4, 1))
        tree = topology_aware_tree(list(range(8)), root=0, distance=dist)
        assert set(tree.parent) == set(range(1, 8))

    def test_respects_max_degree(self):
        dist = grid_distance((4, 4, 1))
        tree = topology_aware_tree(list(range(16)), root=0, distance=dist, max_degree=2)
        assert tree.max_children() <= 2

    def test_no_cycles_and_root_reachable(self):
        dist = node_distance(4)
        tree = topology_aware_tree(list(range(12)), root=5, distance=dist)
        assert tree.depth() >= 1

    def test_beats_or_ties_binomial_on_hops(self):
        # On a 4x4x1 grid with row-major rank placement the greedy tree should
        # use significantly fewer grid hops than the placement-oblivious tree.
        dist = grid_distance((4, 4, 1))
        stats = compare_trees(list(range(16)), root=0, distance=dist)
        assert stats["topology_aware"]["total_hops"] <= stats["binomial"]["total_hops"]

    def test_node_locality_exploited(self):
        # With 9 ranks per node (the paper's ScaLAPACK configuration), a
        # topology-aware tree keeps most edges inside a node.
        dist = node_distance(9)
        stats = compare_trees(list(range(36)), root=0, distance=dist)
        assert stats["topology_aware"]["total_hops"] < stats["binomial"]["total_hops"]
        # Only ~(number of nodes - 1) edges need to cross node boundaries.
        assert stats["topology_aware"]["total_hops"] <= 4

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            topology_aware_tree([0, 1], root=9, distance=node_distance(2))

    def test_duplicate_ranks_deduplicated(self):
        dist = node_distance(2)
        tree = topology_aware_tree([0, 1, 1, 2], root=0, distance=dist)
        assert set(tree.parent) == {1, 2}
