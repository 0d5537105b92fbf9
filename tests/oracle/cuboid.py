"""The cuboid executor (CARMA) and the 1D all-gather baseline, hop by hop.

Cuboids: every element of A, B and C is owned by the lowest-numbered rank
whose cuboid projects onto it, read off an element-wise owner map (never the
coordinate-compressed cells the engine uses).  Rank by rank, in rank order, a
rank fetches the parts of its A and B blocks it does not own -- one message
per owner, owners ascending -- multiplies them, and after every rank has
multiplied, sends each part of its partial C block to that part's owner, who
adds it in (a flop per word).
"""

from __future__ import annotations

import numpy as np

from repro.machine.counters import FLOPS

from .collectives import allgather
from .machine import HopMachine


def ownership_map(shape: tuple[int, int], regions) -> np.ndarray:
    """Element-owner map: the first listed rank whose region covers the element."""
    owners = np.full(shape, -1, dtype=np.int64)
    for rank, (r0, r1), (c0, c1) in regions:
        view = owners[r0:r1, c0:c1]
        view[view == -1] = rank
    return owners


def window_owners(window: np.ndarray) -> np.ndarray:
    """The distinct owners in a rank's window of an owner map, ascending."""
    return np.unique(window)


def _fetch_block(machine: HopMachine, receiver: int, rows, cols, owners, source, kind: str):
    """The dense ``rows x cols`` block of ``source`` assembled on ``receiver``:
    parts owned elsewhere arrive one message per owner, its own are free."""
    local_owners = owners[rows[0] : rows[1], cols[0] : cols[1]]
    block = np.zeros((rows[1] - rows[0], cols[1] - cols[0]), dtype=source.dtype)
    local_values = source[rows[0] : rows[1], cols[0] : cols[1]]
    for owner in window_owners(local_owners).tolist():
        mask = local_owners == owner
        values = local_values[mask]
        block[mask] = values if owner == receiver else machine.send(owner, receiver, values, kind=kind)
    return block


def cuboid(machine: HopMachine, table: np.ndarray, a_matrix, b_matrix):
    """Run the decomposition table (rows ``rank, i0, i1, j0, j1, k0, k1``,
    rank-ordered) and return the product; memory is checked once, at the end."""
    m, n = a_matrix.shape[0], b_matrix.shape[1]
    domains = [(rank, (i0, i1), (j0, j1), (k0, k1))
               for rank, i0, i1, j0, j1, k0, k1 in table.tolist()]
    a_owners = ownership_map(a_matrix.shape, [(r, i, kr) for r, i, _, kr in domains])
    b_owners = ownership_map(b_matrix.shape, [(r, kr, j) for r, _, j, kr in domains])
    c_owners = ownership_map((m, n), [(r, i, j) for r, i, j, _ in domains])

    partial_c = {}
    for rank, i_range, j_range, k_range in domains:
        a_block = _fetch_block(machine, rank, i_range, k_range, a_owners, a_matrix, "input")
        b_block = _fetch_block(machine, rank, k_range, j_range, b_owners, b_matrix, "input")
        machine.put(rank, "A", a_block)
        machine.put(rank, "B", b_block)
        partial_c[rank] = machine.multiply(rank, a_block, b_block)
        machine.put(rank, "C_partial", partial_c[rank])

    c_global = np.zeros((m, n), dtype=a_matrix.dtype)
    for rank, (i0, i1), (j0, j1), _ in domains:
        local_owners = c_owners[i0:i1, j0:j1]
        target = c_global[i0:i1, j0:j1]  # a view: the masked adds land in c_global
        for owner in window_owners(local_owners).tolist():
            mask = local_owners == owner
            values = partial_c[rank][mask]
            if owner != rank:
                values = machine.send(rank, owner, values, kind="output")
                machine.tick(FLOPS, owner, values.size)
            target[mask] += values
    machine.check_memory()
    return c_global


def allgather_1d(machine: HopMachine, q: int, a_matrix, b_matrix):
    """Figure 2's naive 1D algorithm on ``q`` ranks: rank ``r`` owns row
    stripe ``r`` of A and of B (``split_offsets`` stripes: the first
    ``rows % q`` one row longer), all-gathers B around the ring and multiplies
    its A stripe by all of it."""
    (m, k), n = a_matrix.shape, b_matrix.shape[1]

    def stripes(rows):
        bounds = [r * (rows // q) + min(r, rows % q) for r in range(q + 1)]
        return list(zip(bounds, bounds[1:]))

    rows_a, rows_b = stripes(m), stripes(k)
    for r in range(q):
        machine.put(r, "A_own", a_matrix[slice(*rows_a[r]), :])
        machine.put(r, "B_own", b_matrix[slice(*rows_b[r]), :])
    gathered = allgather(machine, range(q), {r: machine.get(r, "B_own") for r in range(q)})
    c_global = np.zeros((m, n), dtype=a_matrix.dtype)
    for r in range(q):
        c_block = machine.multiply(r, machine.get(r, "A_own"), np.concatenate(gathered[r]))
        machine.put(r, "C_own", c_block)
        c_global[slice(*rows_a[r]), :] = c_block
    machine.check_memory()
    return c_global
