"""Collectives on the hop machine, one :meth:`~oracle.machine.HopMachine.send` per hop.

COSMA broadcasts panels of A and B along the ``i``/``j`` fibers of its grid
and reduces partial C blocks along ``k``, through binomial trees (section
7.2), so both the volume and the number of communication rounds are the
tree's.  Each collective takes an explicit list of participating ranks (a
"sub-communicator"); its hop schedule is written out here, independently of
the tree levels the engines read (``repro.core.cosma._fan_levels``).
Payloads may be arrays or shape tokens: a hop counts ``block.size`` words.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.machine.counters import ROUNDS

from .machine import HopMachine, copy_of


def _reorder_for_root(ranks: Sequence[int], root: int) -> list[int]:
    """``ranks`` rotated so that ``root`` comes first (tree positions are
    relative to the root)."""
    ranks = list(ranks)
    if root not in ranks:
        raise ValueError(f"root rank {root} is not part of the communicator {ranks}")
    idx = ranks.index(root)
    return ranks[idx:] + ranks[:idx]


def broadcast_hops(q: int) -> list[tuple[int, int]]:
    """Binomial-tree hops ``(src_pos, dst_pos)`` in send order for ``q`` ranks:
    in round ``r``, position ``i < 2**r`` sends to position ``i + 2**r``."""
    hops = []
    span = 1
    while span < q:
        hops += [(pos, pos + span) for pos in range(min(span, q - span))]
        span *= 2
    return hops


def reduce_hops(q: int) -> list[tuple[int, int]]:
    """The broadcast tree mirrored: ``(src_pos, dst_pos)`` accumulation hops,
    the widest span first."""
    widest_first = sorted(broadcast_hops(q), key=lambda hop: (hop[0] - hop[1], hop[0]))
    return [(dst, src) for src, dst in widest_first]


def broadcast(machine: HopMachine, root: int, ranks: Sequence[int], block, kind: str = "input"):
    """Binomial-tree broadcast of ``block`` from ``root``; returns ``rank ->
    local copy``.  Every non-root rank receives it exactly once."""
    order = _reorder_for_root(ranks, root)
    received = {root: block}
    for s, d in broadcast_hops(len(order)):
        received[order[d]] = machine.send(order[s], order[d], received[order[s]], kind=kind)
    return received


def reduce(machine: HopMachine, root: int, ranks: Sequence[int], blocks: Mapping, kind: str = "output"):
    """Binomial-tree reduction of per-rank ``blocks`` onto ``root``; returns the
    sum.  Every non-root rank sends its partial once, and every accumulation
    is an :meth:`~oracle.machine.HopMachine.add` on the receiver."""
    order = _reorder_for_root(ranks, root)
    for r in order:
        if r not in blocks:
            raise ValueError(f"rank {r} has no block to reduce")
    partial = {r: copy_of(blocks[r]) for r in order}
    for s, d in reduce_hops(len(order)):
        src, dst = order[s], order[d]
        machine.add(dst, partial[dst], machine.send(src, dst, partial[src], kind=kind))
    return partial[root]


def allgather(machine: HopMachine, ranks: Sequence[int], blocks: Mapping, kind: str = "input"):
    """Ring all-gather: every rank ends up with every rank's block, in rank
    order.  In step ``s`` the rank at position ``pos`` forwards the block of
    position ``pos - s`` to its right neighbour; a step is one round of
    sendrecvs on every rank."""
    order = list(ranks)
    q = len(order)
    gathered = {r: [None] * q for r in order}
    for pos, r in enumerate(order):
        gathered[r][pos] = blocks[r]
    for step in range(q - 1):
        for pos, r in enumerate(order):
            send_pos = (pos - step) % q
            dst = order[(pos + 1) % q]
            gathered[dst][send_pos] = machine.send(r, dst, gathered[r][send_pos], kind=kind,
                                                   count_round=False)
        for r in order:
            machine.tick(ROUNDS, r)
    return gathered


def scatter(machine: HopMachine, root: int, ranks: Sequence[int], pieces: Mapping, kind: str = "input"):
    """Scatter per-rank ``pieces`` from ``root``; returns the piece on each rank."""
    for r in ranks:
        if r not in pieces:
            raise ValueError(f"scatter is missing the piece for rank {r}")
    return {r: machine.send(root, r, pieces[r], kind=kind) for r in ranks}


def rma_get(machine: HopMachine, origin: int, target: int, block, kind: str = "input"):
    """One-sided get (section 7.4): ``origin`` reads ``block`` from ``target``.

    The words travel from ``target`` to ``origin`` as in a send, but only the
    origin's round counter advances -- the target is passive, which is how
    RDMA lowers the latency cost.
    """
    if origin == target:
        return machine.send(origin, target, block)
    delivered = machine.send(target, origin, block, kind=kind, count_round=False)
    machine.tick(ROUNDS, origin)
    return delivered
