"""Collective communication operations on the distributed machine simulator.

COSMA's communication pattern (section 7.2 of the paper) broadcasts panels of
``A`` and ``B`` along the ``i``/``j`` dimensions of the processor grid and
reduces partial results of ``C`` along ``k``.  The paper implements its own
binary (binomial) broadcast/reduction trees; we do the same here so that both
the communicated volume *and* the number of communication rounds (the latency
proxy) are modelled faithfully.

All collectives operate on an explicit list of participating ranks (a
"sub-communicator").  Each collective derives its hop schedule once (the
binomial-tree pair lists are memoized per communicator size) and sends every
hop through :meth:`repro.machine.simulator.DistributedMachine.send`, in every
mode: on a ``volume`` machine the payloads are shape tokens and the transport
delivers tokens, so the communication counters are byte-identical across
modes.  The built-in algorithms' batched engines never call these loops; they
read the tree shape (:func:`tree_fanout`) and post whole schedules
themselves.  Cannon's ring is not a collective here: it is an ``exchange``
kind of the grid family's panel exchange (:mod:`repro.core.cosma`), whose
per-hop twin forwards each piece with one ``send`` per hop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.machine.counters import ROUNDS
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import payload_view


def _reorder_for_root(ranks: Sequence[int], root: int) -> list[int]:
    """Return ``ranks`` rotated so that ``root`` comes first.

    The binomial-tree helpers index positions relative to the root.
    """
    ranks = list(ranks)
    if root not in ranks:
        raise ValueError(f"root rank {root} is not part of the communicator {ranks}")
    idx = ranks.index(root)
    return ranks[idx:] + ranks[:idx]


@lru_cache(maxsize=256)
def broadcast_hops(q: int) -> tuple[tuple[int, int], ...]:
    """Binomial-tree hops ``(src_pos, dst_pos)`` in send order for ``q`` ranks.

    In round ``r``, position ``i < 2**r`` sends to position ``i + 2**r``; each
    non-root position receives exactly once, matching MPI_Bcast's volume.
    Positions are relative to the root (position 0).
    """
    hops: list[tuple[int, int]] = []
    span = 1
    while span < q:
        for pos in range(span):
            partner = pos + span
            if partner >= q:
                break
            hops.append((pos, partner))
        span *= 2
    return tuple(hops)


@lru_cache(maxsize=256)
def tree_fanout(q: int) -> tuple[int, ...]:
    """Messages each position of the :func:`broadcast_hops` tree sends; mirrored,
    what each position of the :func:`reduce_hops` tree receives.  Every non-root
    position receives (sends) exactly once, so this is all of the tree a batched
    engine needs: per-rank counters are sums over positions, not over hops."""
    fanout = [0] * q
    for src, _ in broadcast_hops(q):
        fanout[src] += 1
    return tuple(fanout)


@lru_cache(maxsize=256)
def reduce_hops(q: int) -> tuple[tuple[int, int], ...]:
    """Mirror of the broadcast tree: ``(src_pos, dst_pos)`` accumulation hops."""
    hops: list[tuple[int, int]] = []
    span = 1
    while span < q:
        span *= 2
    span //= 2
    while span >= 1:
        for pos in range(span):
            partner = pos + span
            if partner >= q:
                continue
            hops.append((partner, pos))
        span //= 2
    return tuple(hops)


def broadcast(
    machine: DistributedMachine,
    root: int,
    ranks: Sequence[int],
    block: np.ndarray,
    kind: str = "input",
) -> dict[int, np.ndarray]:
    """Binomial-tree broadcast of ``block`` from ``root`` to every rank in ``ranks``.

    Returns a mapping ``rank -> local copy of block``.  With ``q`` ranks the
    tree has ``ceil(log2 q)`` levels; each non-root rank receives the payload
    exactly once, so the per-rank received volume matches MPI_Bcast.
    """
    order = _reorder_for_root(ranks, root)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("broadcast", q)
    received = {root: payload_view(block)}
    for s, d in broadcast_hops(q):
        received[order[d]] = machine.send(order[s], order[d], received[order[s]], kind=kind)
    return received


def reduce(
    machine: DistributedMachine,
    root: int,
    ranks: Sequence[int],
    blocks: Mapping[int, np.ndarray],
    kind: str = "output",
) -> np.ndarray:
    """Binomial-tree reduction of per-rank ``blocks`` onto ``root``.

    Each participating rank contributes one array of identical shape; their
    element-wise sum ends up on ``root`` and is returned.  Every non-root rank
    sends its partial exactly once, matching the volume of MPI_Reduce, and
    every accumulation is a :meth:`~DistributedMachine.local_add` on the
    receiving rank, so the reduction flops are accounted.
    """
    order = _reorder_for_root(ranks, root)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("reduce", q)
    for r in order:
        if r not in blocks:
            raise ValueError(f"rank {r} has no block to reduce")
    partial: dict[int, np.ndarray] = {r: machine.transport.clone(blocks[r]) for r in order}
    for s, d in reduce_hops(q):
        src, dst = order[s], order[d]
        incoming = machine.send(src, dst, partial[src], kind=kind)
        machine.local_add(dst, partial[dst], incoming)
    return partial[root]


def allgather(
    machine: DistributedMachine,
    ranks: Sequence[int],
    blocks: Mapping[int, np.ndarray],
    kind: str = "input",
) -> dict[int, list[np.ndarray]]:
    """Ring allgather: every rank ends up with every rank's block (in rank order).

    The per-rank received volume is ``(q - 1) * block_size``, identical to
    MPI_Allgather.
    """
    order = list(ranks)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("allgather", q)
    gathered: dict[int, list[np.ndarray]] = {r: [None] * q for r in order}  # type: ignore[list-item]
    for pos, r in enumerate(order):
        gathered[r][pos] = payload_view(blocks[r])
    # Ring: in step s, rank at position pos sends the block it received s steps
    # ago to its right neighbour.
    for step in range(q - 1):
        for pos, r in enumerate(order):
            send_pos = (pos - step) % q
            dst = order[(pos + 1) % q]
            payload = gathered[r][send_pos]
            delivered = machine.send(r, dst, payload, kind=kind, count_round=False)
            gathered[dst][send_pos] = delivered
        for r in order:
            machine.counters.log_tick(ROUNDS, machine.check_rank(r), 1)
    return gathered


def scatter(
    machine: DistributedMachine,
    root: int,
    ranks: Sequence[int],
    pieces: Mapping[int, np.ndarray],
    kind: str = "input",
) -> dict[int, np.ndarray]:
    """Scatter per-rank ``pieces`` from ``root``; returns the piece on each rank."""
    for r in ranks:
        if r not in pieces:
            raise ValueError(f"scatter is missing the piece for rank {r}")
    if machine.trace is not None:
        machine.trace.collective("scatter", len(ranks))
    out = {}
    for r in ranks:
        if r == root:
            out[r] = machine.transport.self_copy(pieces[r])
        else:
            out[r] = machine.send(root, r, pieces[r], kind=kind)
    return out
