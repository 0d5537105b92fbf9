"""The grid family (COSMA, SUMMA, Cannon, 2.5D) executed hop by hop.

Algorithm 1 on a :class:`~repro.core.decomposition.CosmaDecomposition`'s
boundary arrays: every used rank stores its owned slices of A and B and a
zeroed C block; in round ``r`` every k-layer that still has k moves the
pieces of the round's k-chunk along the fibers -- A along ``j``, B along
``i`` -- and every rank multiplies its two panels into its C block; then the
C blocks of every k fiber are reduced onto its ``kk = 0`` rank.  SUMMA is
that on ``pm x pn x 1`` with the panel width as the step and no reduction,
Cannon the same on a padded ``q x q`` grid with a ring and a skew first, 2.5D
on ``q x q x c`` with one whole-layer round of direct sends.

How a piece reaches the other ranks of its fiber is the ``exchange`` kind:
``"tree"``, one binomial broadcast; ``"get"``, one one-sided get per member;
``"gather"``, one direct send per member; ``"ring"``, forwarded from
neighbour to neighbour, each hop a sendrecv whose round the receiver pays.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import CosmaDecomposition
from repro.machine.counters import ROUNDS

from .collectives import broadcast, reduce, rma_get
from .machine import HopMachine


def _rank_grid(decomposition: CosmaDecomposition) -> list:
    """The used ranks as nested ``[pi][pj][kk]`` lists (row-major ranks)."""
    pm, pn, pk = decomposition.grid
    return np.arange(pm * pn * pk).reshape(pm, pn, pk).tolist()


def put_owned_blocks(machine: HopMachine, decomposition: CosmaDecomposition,
                     a_matrix, b_matrix, a_name: str, b_name: str, c_name: str) -> None:
    """Store every used rank's owned A / B slices and a zeroed C block (the
    initial layout; no communication is counted)."""
    i_bounds, j_bounds, a_bounds, b_bounds = (bounds.tolist() for bounds in (
        decomposition.i_bounds, decomposition.j_bounds, decomposition.a_bounds,
        decomposition.b_bounds))
    for pi, plane in enumerate(_rank_grid(decomposition)):
        i0, i1 = i_bounds[pi : pi + 2]
        for pj, fiber in enumerate(plane):
            j0, j1 = j_bounds[pj : pj + 2]
            for kk, rank in enumerate(fiber):
                ak0, ak1 = a_bounds[kk][pj : pj + 2]
                bk0, bk1 = b_bounds[kk][pi : pi + 2]
                machine.put(rank, a_name, np.ascontiguousarray(a_matrix[i0:i1, ak0:ak1]))
                machine.put(rank, b_name, np.ascontiguousarray(b_matrix[bk0:bk1, j0:j1]))
                machine.put(rank, c_name, np.zeros((i1 - i0, j1 - j0), dtype=a_matrix.dtype))


def _fiber_panel(machine: HopMachine, exchange: str, fiber: list[int], name: str,
                 slices: list[int], c0: int, c1: int, axis: int):
    """One fiber's panel of the k-chunk ``[c0, c1)``, cut along ``axis`` from
    the fiber's ``name`` blocks (owner ``pos`` holds ``slices[pos:pos + 2]``):
    every owner whose slice meets the chunk moves its piece to the rest of the
    fiber, and the pieces, in owner order, are the panel every member uses."""
    parts = []
    for pos, (owner, s0, s1) in enumerate(zip(fiber, slices, slices[1:])):
        lo, hi = max(s0, c0), min(s1, c1)
        if lo >= hi:
            continue  # the owner's slice misses the chunk: it sends nothing
        cut = slice(lo - s0, hi - s0)
        block = machine.get(owner, name)
        piece = block[:, cut] if axis else block[cut]
        if exchange == "tree":
            broadcast(machine, owner, fiber, piece, kind="input")
        elif exchange == "ring":
            order = fiber[pos:] + fiber[:pos]
            held = piece
            for src, dst in zip(order, order[1:]):
                held = machine.send(src, dst, held, kind="input", count_round=False)
                machine.tick(ROUNDS, dst)
        else:
            for member in fiber:
                if member == owner:
                    continue
                if exchange == "get":
                    rma_get(machine, member, owner, piece)
                else:
                    machine.send(owner, member, piece, kind="input")
        parts.append(piece)
    return np.concatenate(parts, axis=axis)


def fiber_exchange(machine: HopMachine, decomposition: CosmaDecomposition, exchange: str,
                   a_name: str, b_name: str, c_name: str) -> int:
    """Run the panel exchange on the ranks' stored blocks; returns the number
    of rounds.  Memory is checked at the end of every round, which is a round
    boundary labelled ``exchange-<exchange>``."""
    pm, pn, pk = decomposition.grid
    ranks = _rank_grid(decomposition)
    k_bounds, a_bounds, b_bounds = (bounds.tolist() for bounds in (
        decomposition.k_bounds, decomposition.a_bounds, decomposition.b_bounds))
    step = decomposition.step_size
    offsets = range(0, k_bounds[1] - k_bounds[0], step)
    for r, offset in enumerate(offsets):
        for kk in range(pk):
            c0 = min(k_bounds[kk] + offset, k_bounds[kk + 1])
            c1 = min(c0 + step, k_bounds[kk + 1])
            if c0 == c1:
                continue  # this layer ran out of k in an earlier round
            a_panels = [
                _fiber_panel(machine, exchange, [ranks[pi][pj][kk] for pj in range(pn)],
                             a_name, a_bounds[kk], c0, c1, axis=1)
                for pi in range(pm)
            ]
            b_panels = [
                _fiber_panel(machine, exchange, [ranks[pi][pj][kk] for pi in range(pm)],
                             b_name, b_bounds[kk], c0, c1, axis=0)
                for pj in range(pn)
            ]
            for pi, a_panel in enumerate(a_panels):
                for pj, b_panel in enumerate(b_panels):
                    rank = ranks[pi][pj][kk]
                    machine.multiply(rank, a_panel, b_panel,
                                     accumulate_into=machine.get(rank, c_name))
        machine.check_memory()
        machine.boundary(f"exchange-{exchange}")
    return len(offsets)


def c_reduction(machine: HopMachine, decomposition: CosmaDecomposition, c_name: str) -> None:
    """Reduce every k fiber's ``c_name`` blocks onto its ``kk = 0`` rank, which
    stores the sum as ``C_final``; a round boundary when there is a k fiber
    to reduce along."""
    for plane in _rank_grid(decomposition):
        for fiber in plane:
            blocks = {rank: machine.get(rank, c_name) for rank in fiber}
            owner = fiber[0]
            total = (reduce(machine, owner, fiber, blocks, kind="output")
                     if len(fiber) > 1 else blocks[owner])
            machine.put(owner, "C_final", total)
    if decomposition.grid.pk > 1:
        machine.boundary("c-reduction")


def owner_product(machine: HopMachine, decomposition: CosmaDecomposition, name: str):
    """The global product: every ``kk = 0`` rank's ``name`` block at its offset."""
    i_bounds, j_bounds = decomposition.i_bounds.tolist(), decomposition.j_bounds.tolist()
    c_global = None
    for pi, plane in enumerate(_rank_grid(decomposition)):
        for pj, fiber in enumerate(plane):
            block = machine.get(fiber[0], name)
            if c_global is None:
                c_global = np.zeros((decomposition.m, decomposition.n), dtype=block.dtype)
            c_global[i_bounds[pi] : i_bounds[pi + 1], j_bounds[pj] : j_bounds[pj + 1]] = block
    return c_global


# ---------------------------------------------------------------------------
# the four algorithms
# ---------------------------------------------------------------------------
def cosma(machine: HopMachine, decomposition: CosmaDecomposition, a_matrix, b_matrix,
          use_rma: bool = False):
    """COSMA: broadcast trees (or one-sided gets), the C reduction and a last
    memory check.  Returns ``(product, rounds)``."""
    put_owned_blocks(machine, decomposition, a_matrix, b_matrix, "A_own", "B_own", "C_acc")
    rounds = fiber_exchange(machine, decomposition, "get" if use_rma else "tree",
                            "A_own", "B_own", "C_acc")
    c_reduction(machine, decomposition, "C_acc")
    machine.check_memory()
    return owner_product(machine, decomposition, "C_final"), rounds


def panels(machine: HopMachine, decomposition: CosmaDecomposition, a_matrix, b_matrix,
           exchange: str):
    """A one-layer decomposition's panel rounds (SUMMA's ``"tree"``, Cannon's
    ``"ring"``) and the product read off the accumulators."""
    put_owned_blocks(machine, decomposition, a_matrix, b_matrix, "A", "B", "C")
    fiber_exchange(machine, decomposition, exchange, "A", "B", "C")
    return owner_product(machine, decomposition, "C")


def cannon(machine: HopMachine, decomposition: CosmaDecomposition, a_matrix, b_matrix):
    """Cannon on its padded ``q x q`` decomposition: the skew -- rank ``(i, j)``
    sends its A block ``i`` places left and its B block ``j`` places up, each a
    sendrecv, and every grid rank pays a round per shift, one round boundary
    -- then the panel rounds with a ring.  The rounds run on the blocks as laid out: the ring
    passes every block past every rank of its fiber, which is what the skewed
    shifts do."""
    m, k = a_matrix.shape
    n = b_matrix.shape[1]
    q = decomposition.grid.pm
    bm, bn, bk = decomposition.m // q, decomposition.n // q, decomposition.k // q
    a_pad = np.zeros((decomposition.m, decomposition.k), dtype=a_matrix.dtype)
    b_pad = np.zeros((decomposition.k, decomposition.n), dtype=b_matrix.dtype)
    a_pad[:m, :k], b_pad[:k, :n] = a_matrix, b_matrix
    for i in range(q):
        for j in range(q):
            if i:
                machine.send(i * q + j, i * q + (j - i) % q,
                             a_pad[i * bm : (i + 1) * bm, j * bk : (j + 1) * bk], count_round=False)
            if j:
                machine.send(i * q + j, ((i - j) % q) * q + j,
                             b_pad[i * bk : (i + 1) * bk, j * bn : (j + 1) * bn], count_round=False)
    for rank in range(q * q):
        machine.tick(ROUNDS, rank, 2)
    machine.boundary("cannon-skew")
    return panels(machine, decomposition, a_pad, b_pad, "ring")[:m, :n]


def grid25d(machine: HopMachine, decomposition: CosmaDecomposition, a_matrix, b_matrix):
    """2.5D: one whole-layer round of direct sends, then the C reduction (and
    no memory check after it)."""
    put_owned_blocks(machine, decomposition, a_matrix, b_matrix, "A", "B", "C")
    fiber_exchange(machine, decomposition, "gather", "A", "B", "C")
    c_reduction(machine, decomposition, "C")
    return owner_product(machine, decomposition, "C_final")
