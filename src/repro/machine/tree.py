"""Broadcast/reduction trees (section 7.2): binomial and topology-aware.

COSMA's panels are broadcast along the ``i``/``j`` fibers of the processor
grid and its partial C blocks reduced along ``k``; the paper implements its
own binary (binomial) trees for both, so the volume *and* the number of
communication rounds (the latency proxy) are those of the tree.
:func:`binomial_tree` is that tree; the batched engines count it level by
level (``repro.core.cosma._fan_levels``) and never build it.

Beyond that, the paper replaces the generic MPI broadcast with a
hand-crafted binary tree that exploits static knowledge of the data layout
and processor grid: parent and child ranks are chosen to be close to each
other in the grid, which on a dragonfly network translates into fewer
expensive inter-group hops (the paper reports ~10% faster collectives than
Cray-MPICH's defaults).

The simulator cannot measure switch contention, but it can measure *hop
counts*: this module builds trees that minimize the total parent-child
distance under a pluggable distance function (grid Manhattan distance by
default, or node-granularity distance for a "nodes of 36 cores" placement) and
exposes the per-tree hop statistics that the ablation benchmark compares
against a placement-oblivious binomial tree.

The topology-aware trees are not simulated: the counters count words, not
hops.  They are kept for that ablation,
``benchmarks/bench_ablation_broadcast_tree.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.utils.validation import check_positive_int

DistanceFn = Callable[[int, int], float]


@dataclass(frozen=True)
class BroadcastTree:
    """A rooted tree over a set of ranks, given as a parent map."""

    root: int
    parent: Mapping[int, int]

    def children(self, rank: int) -> list[int]:
        return sorted(r for r, p in self.parent.items() if p == rank)

    def depth(self) -> int:
        """Longest root-to-leaf path length (the latency of the broadcast)."""
        longest = 0
        for rank in self.parent:
            length = 0
            current = rank
            while current != self.root:
                current = self.parent[current]
                length += 1
                if length > len(self.parent) + 1:  # pragma: no cover - cycle guard
                    raise ValueError("parent map contains a cycle")
            longest = max(longest, length)
        return longest

    def total_hops(self, distance: DistanceFn) -> float:
        """Sum of parent-child distances: the metric the tree construction minimizes."""
        return sum(distance(parent, child) for child, parent in self.parent.items())

    def max_children(self) -> int:
        counts: dict[int, int] = {}
        for parent in self.parent.values():
            counts[parent] = counts.get(parent, 0) + 1
        return max(counts.values(), default=0)


def grid_distance(grid_shape: tuple[int, int, int]) -> DistanceFn:
    """Manhattan distance between two ranks' coordinates in a processor grid.

    Ranks are mapped to grid coordinates row-major in ``(pi, pj, kk)``, the
    rank order of a :class:`repro.core.decomposition.CosmaDecomposition`.
    """
    pm, pn, pk = grid_shape
    check_positive_int(pm, "pm")
    check_positive_int(pn, "pn")
    check_positive_int(pk, "pk")

    def coords(rank: int) -> tuple[int, int, int]:
        pi, rest = divmod(rank, pn * pk)
        pj, pkk = divmod(rest, pk)
        return pi, pj, pkk

    def distance(a: int, b: int) -> float:
        ca, cb = coords(a), coords(b)
        return float(abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]) + abs(ca[2] - cb[2]))

    return distance


def node_distance(cores_per_node: int) -> DistanceFn:
    """0 for ranks on the same node, 1 otherwise (placement at node granularity)."""
    check_positive_int(cores_per_node, "cores_per_node")

    def distance(a: int, b: int) -> float:
        return 0.0 if a // cores_per_node == b // cores_per_node else 1.0

    return distance


def binomial_tree(ranks: Sequence[int], root: int) -> BroadcastTree:
    """The placement-oblivious binomial tree used by generic MPI broadcasts.

    With the ranks rotated so that ``root`` comes first, in round ``r`` the
    position ``i < 2**r`` sends to position ``i + 2**r``: ``ceil(log2 q)``
    rounds, and every rank but the root receives exactly once, matching
    MPI_Bcast's volume.
    """
    order = list(ranks)
    if root not in order:
        raise ValueError(f"root {root} is not among the ranks {order}")
    order.remove(root)
    order.insert(0, root)
    parent: dict[int, int] = {}
    span = 1
    while span < len(order):
        for pos in range(span):
            partner = pos + span
            if partner >= len(order):
                break
            parent[order[partner]] = order[pos]
        span *= 2
    return BroadcastTree(root=root, parent=parent)


def topology_aware_tree(
    ranks: Sequence[int],
    root: int,
    distance: DistanceFn,
    max_degree: int = 2,
) -> BroadcastTree:
    """Build a distance-minimizing broadcast tree (greedy Prim-style construction).

    Starting from the root, repeatedly attach the unattached rank whose
    distance to some already-attached rank (with spare fan-out) is smallest.
    With ``max_degree = 2`` the result is a binary tree as in the paper; the
    greedy rule keeps parent-child pairs close in the processor grid.
    """
    ranks = list(dict.fromkeys(ranks))
    if root not in ranks:
        raise ValueError(f"root {root} is not among the ranks {ranks}")
    check_positive_int(max_degree, "max_degree")
    attached = {root}
    fanout: dict[int, int] = {root: 0}
    parent: dict[int, int] = {}
    remaining = [r for r in ranks if r != root]
    while remaining:
        best_pair: tuple[float, int, int] | None = None
        for child in remaining:
            for candidate_parent in attached:
                if fanout[candidate_parent] >= max_degree:
                    continue
                d = distance(candidate_parent, child)
                key = (d, child, candidate_parent)
                if best_pair is None or key < best_pair:
                    best_pair = key
        if best_pair is None:
            # Every attached rank is saturated; allow one extra child on the
            # least-loaded rank (can only happen for max_degree * depth < p).
            candidate_parent = min(attached, key=lambda r: fanout[r])
            child = remaining[0]
            best_pair = (distance(candidate_parent, child), child, candidate_parent)
        _d, child, chosen_parent = best_pair
        parent[child] = chosen_parent
        fanout[chosen_parent] = fanout.get(chosen_parent, 0) + 1
        fanout[child] = 0
        attached.add(child)
        remaining.remove(child)
    return BroadcastTree(root=root, parent=parent)


def compare_trees(
    ranks: Sequence[int],
    root: int,
    distance: DistanceFn,
) -> dict[str, dict[str, float]]:
    """Hop statistics of the generic binomial tree vs the topology-aware tree."""
    generic = binomial_tree(ranks, root)
    aware = topology_aware_tree(ranks, root, distance)
    return {
        "binomial": {
            "total_hops": generic.total_hops(distance),
            "depth": generic.depth(),
            "max_children": generic.max_children(),
        },
        "topology_aware": {
            "total_hops": aware.total_hops(distance),
            "depth": aware.depth(),
            "max_children": aware.max_children(),
        },
    }
