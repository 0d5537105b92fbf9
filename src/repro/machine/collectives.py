"""Collective communication operations on the distributed machine simulator.

COSMA's communication pattern (section 7.2 of the paper) broadcasts panels of
``A`` and ``B`` along the ``i``/``j`` dimensions of the processor grid and
reduces partial results of ``C`` along ``k``.  The paper implements its own
binary (binomial) broadcast/reduction trees; we do the same here so that both
the communicated volume *and* the number of communication rounds (the latency
proxy) are modelled faithfully.

All collectives operate on an explicit list of participating ranks (a
"sub-communicator").  Each collective derives its hop schedule once (the
binomial-tree pair lists are memoized per communicator size); with payload
transports that carry real data every hop goes through
:meth:`repro.machine.simulator.DistributedMachine.send`, while in
counters-only (``volume``) mode the whole schedule is accounted as **one
batched update for all participating ranks**
(:meth:`~repro.machine.simulator.DistributedMachine.post_transfers`) and the
deliveries are shared shape tokens.  Both paths walk the same hop lists, so
the communication counters are byte-identical across modes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken, payload_shape, payload_view, payload_words


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


def _post_hops(machine, order, hops, words, kind, combine: bool) -> None:
    """Post one tree schedule's hops batched; ``combine`` adds reduce flops."""
    if not hops:
        return
    dsts = [order[d] for _, d in hops]
    machine.post_transfers([order[s] for s, _ in hops], dsts, words, kind=kind)
    if combine:
        # One combine per hop, charged to the accumulating rank, exactly as
        # the per-hop path's local_combine would.
        machine.counters.add_flops(dsts, words)


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
    exactly once, so the per-rank received volume matches MPI_Bcast.  In
    counters-only mode the non-root deliveries share one shape token (tokens
    are never written through).
    """
    order = _reorder_for_root(ranks, root)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("broadcast", q)
    hops = broadcast_hops(q)
    if machine.transport.counters_only and hops:
        _post_hops(machine, order, hops, payload_words(block), kind, combine=False)
        token = ShapeToken(payload_shape(block))
        received: dict[int, np.ndarray] = dict.fromkeys(order, token)
        received[root] = payload_view(block)
        return received
    received = {root: payload_view(block)}
    for s, d in hops:
        received[order[d]] = machine.send(order[s], order[d], received[order[s]], kind=kind)
    return received


def reduce(
    machine: DistributedMachine,
    root: int,
    ranks: Sequence[int],
    blocks: Mapping[int, np.ndarray],
    kind: str = "output",
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Binomial-tree reduction of per-rank ``blocks`` onto ``root``.

    Each participating rank contributes one array of identical shape; the
    result (element-wise sum by default) ends up on ``root`` and is returned.
    Every non-root rank sends its partial exactly once, matching the volume of
    MPI_Reduce.  Both the default sum and custom operators are combined
    through the machine so the reduction flops are accounted either way.
    """
    order = _reorder_for_root(ranks, root)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("reduce", q)
    for r in order:
        if r not in blocks:
            raise ValueError(f"rank {r} has no block to reduce")
    hops = reduce_hops(q)
    if machine.transport.counters_only:
        # Shape compatibility is still enforced exactly where the per-hop
        # path's local_combine would raise.
        shape = payload_shape(blocks[root])
        for r in order:
            if payload_shape(blocks[r]) != shape:
                raise ValueError(
                    f"shape mismatch in local_add: {shape} vs {payload_shape(blocks[r])}"
                )
        _post_hops(machine, order, hops, payload_words(blocks[root]), kind, combine=True)
        return machine.transport.clone(blocks[root])
    partial: dict[int, np.ndarray] = {r: machine.transport.clone(blocks[r]) for r in order}
    for s, d in hops:
        src, dst = order[s], order[d]
        incoming = machine.send(src, dst, partial[src], kind=kind)
        partial[dst] = machine.local_combine(dst, partial[dst], incoming, op=op)
    return partial[root]


def allreduce(
    machine: DistributedMachine,
    ranks: Sequence[int],
    blocks: Mapping[int, np.ndarray],
    kind: str = "output",
) -> dict[int, np.ndarray]:
    """Reduce-then-broadcast allreduce; returns the summed block on every rank."""
    root = ranks[0]
    total = reduce(machine, root, ranks, blocks, kind=kind)
    return broadcast(machine, root, ranks, total, kind=kind)


def reduce_scatter_blocks(
    machine: DistributedMachine,
    ranks: Sequence[int],
    contributions: Mapping[int, Mapping[int, np.ndarray]],
    kind: str = "output",
) -> dict[int, np.ndarray]:
    """Reduce-scatter where rank ``r`` ends up owning the sum of everyone's piece ``r``.

    ``contributions[src][dst]`` is the partial block that ``src`` has computed
    for the portion owned by ``dst``.  Every off-rank partial is sent directly
    to its owner, which accumulates it -- the communicated volume equals that
    of MPI_Reduce_scatter with the same block sizes.
    """
    results: dict[int, np.ndarray] = {}
    if machine.trace is not None:
        machine.trace.collective("reduce_scatter", len(ranks))
    if machine.transport.counters_only:
        srcs: list[int] = []
        dsts: list[int] = []
        words: list[int] = []
        for dst in ranks:
            own = contributions.get(dst, {}).get(dst)
            if own is None:
                raise ValueError(f"rank {dst} is missing its own contribution")
            own_shape = payload_shape(own)
            for src in ranks:
                if src == dst:
                    continue
                piece = contributions.get(src, {}).get(dst)
                if piece is None:
                    continue
                if payload_shape(piece) != own_shape:
                    raise ValueError(
                        f"shape mismatch in local_add: {own_shape} vs {payload_shape(piece)}"
                    )
                srcs.append(src)
                dsts.append(dst)
                words.append(payload_words(piece))
            results[dst] = machine.transport.clone(own)
        machine.post_transfers(srcs, dsts, words, kind=kind)
        # local_add charges one flop per accumulated element on the owner.
        machine.counters.add_flops(dsts, words)
        return results
    for dst in ranks:
        own = contributions.get(dst, {}).get(dst)
        if own is None:
            raise ValueError(f"rank {dst} is missing its own contribution")
        acc = machine.transport.clone(own)
        for src in ranks:
            if src == dst:
                continue
            piece = contributions.get(src, {}).get(dst)
            if piece is None:
                continue
            incoming = machine.send(src, dst, piece, kind=kind)
            machine.local_add(dst, acc, incoming)
        results[dst] = acc
    return results


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
    if machine.transport.counters_only and q > 1:
        # Whole-ring schedule in one batched update: over the q-1 steps the
        # rank at position pos forwards the blocks of positions pos, pos-1,
        # ..., pos-(q-2) to its right neighbour; every step costs each rank
        # one round.
        sizes = np.array([payload_words(blocks[r]) for r in order], dtype=np.int64)
        positions = np.arange(q)
        send_pos = (positions[:, None] - np.arange(q - 1)[None, :]) % q  # (pos, step)
        srcs = np.repeat(np.asarray(order, dtype=np.intp), q - 1)
        dsts = np.repeat(np.asarray(order, dtype=np.intp)[(positions + 1) % q], q - 1)
        machine.post_transfers(srcs, dsts, sizes[send_pos].ravel(), kind=kind,
                               count_rounds=False)
        machine.counters.add_rounds(order, q - 1)
        tokens = [ShapeToken(payload_shape(blocks[r])) for r in order]
        return {
            r: [payload_view(blocks[r]) if pos == own else tokens[pos] for pos in range(q)]
            for own, r in enumerate(order)
        }
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
            machine.rank(r).counters.rounds += 1
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
    if machine.transport.counters_only:
        others = [r for r in ranks if r != root]
        machine.post_transfers(
            [root] * len(others), others,
            [payload_words(pieces[r]) for r in others], kind=kind,
        )
        out = {r: ShapeToken(payload_shape(pieces[r])) for r in others}
        if root in ranks:
            out[root] = machine.transport.self_copy(pieces[root])
        return out
    out = {}
    for r in ranks:
        if r == root:
            out[r] = machine.transport.self_copy(pieces[r])
        else:
            out[r] = machine.send(root, r, pieces[r], kind=kind)
    return out


def ring_shift(
    machine: DistributedMachine,
    ranks: Sequence[int],
    blocks: Mapping[int, np.ndarray],
    displacement: int = 1,
    kind: str = "input",
) -> dict[int, np.ndarray]:
    """Cyclically shift blocks along ``ranks`` by ``displacement`` positions.

    Used by Cannon's algorithm: the block held by the rank at position ``pos``
    moves to the rank at position ``pos - displacement`` (i.e. data flows
    "left/up" as in the classical formulation).
    """
    order = list(ranks)
    q = len(order)
    if machine.trace is not None:
        machine.trace.collective("ring_shift", q)
    if machine.transport.counters_only:
        srcs: list[int] = []
        dsts: list[int] = []
        words: list[int] = []
        out: dict[int, np.ndarray] = {}
        for pos, r in enumerate(order):
            dst = order[(pos - displacement) % q]
            if dst == r:
                out[r] = machine.transport.self_copy(blocks[r])
            else:
                srcs.append(r)
                dsts.append(dst)
                words.append(payload_words(blocks[r]))
                out[dst] = ShapeToken(payload_shape(blocks[r]))
        machine.post_transfers(srcs, dsts, words, kind=kind, count_rounds=False)
        machine.counters.add_rounds(order)
        return out
    out = {}
    for pos, r in enumerate(order):
        dst = order[(pos - displacement) % q]
        if dst == r:
            out[r] = machine.transport.self_copy(blocks[r])
        else:
            out[dst] = machine.send(r, dst, blocks[r], kind=kind, count_round=False)
    for r in order:
        machine.rank(r).counters.rounds += 1
    return out
