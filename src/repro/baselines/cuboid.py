"""Generic executor for cuboidal domain decompositions.

Several algorithms (CARMA's recursive splitting, explicit 3D grids, ablation
experiments) boil down to: *assign every rank a cuboid of the iteration
space, fetch the inputs its cuboid projects onto, multiply locally, and reduce
overlapping output projections*.  This module runs any such assignment on the
distributed machine simulator with honest communication accounting:

* every element of A, B and C is *owned* by exactly one rank -- the
  lowest-numbered rank whose cuboid projects onto it (so the initial layout
  stores each matrix exactly once, co-located with a rank that needs it);
* a rank receives the parts of its A / B projections it does not own from
  their owners (counted, grouped into one message per (owner, receiver) pair);
* every rank's partial C block is accumulated onto the owners of the
  corresponding output elements (counted the same way).

The per-rank *received* volume therefore equals the size of the rank's A and B
projections minus what it already owns, plus its share of the C reduction --
exactly the quantity the communication lower bounds reason about.  Cuboids may
overlap partially in their projections (as happens for CARMA with
non-power-of-two dimensions); the element-wise ownership handles that
correctly.

``plane`` and ``volume`` runs take the batched path (:func:`_cuboid_batched`):
ownership is resolved on the *coordinate-compressed* grid (:class:`_CellOwners`
-- one cell per pair of consecutive domain-range endpoints, so the cost is
O(cells), not O(mn + mk + nk)), every fetch / reduction posts its per-owner
element counts batched, values (plane mode) move as dense slices and the local
products run as stacked GEMMs grouped by cuboid shape; ``volume`` is that path
minus the numerics.  The per-rank loop in :func:`cuboid_multiply`, with its
element-wise owner maps and per-owner masks, serves ``legacy`` / ``zerocopy``
only.  CARMA inherits both through :func:`cuboid_multiply`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import as_payload

Range = tuple[int, int]


@dataclass(frozen=True)
class CuboidDomain:
    """The cuboid of multiplications assigned to one rank."""

    rank: int
    i_range: Range
    j_range: Range
    k_range: Range

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            self.i_range[1] - self.i_range[0],
            self.j_range[1] - self.j_range[0],
            self.k_range[1] - self.k_range[0],
        )

    @property
    def volume(self) -> int:
        lm, ln, lk = self.shape
        return lm * ln * lk


@dataclass
class CuboidRunResult:
    """Outcome of a cuboid-decomposition run."""

    matrix: np.ndarray
    domains: tuple[CuboidDomain, ...]
    counters: CommCounters

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()


def validate_domains(m: int, n: int, k: int, domains: list[CuboidDomain]) -> None:
    """Check that the cuboids tile the full ``m x n x k`` iteration space.

    The check is volumetric plus per-dimension bounds; together with
    disjointness of the per-rank cuboids (guaranteed by every generator in
    this library) this implies an exact tiling.
    """
    total = 0
    for domain in domains:
        for (lo, hi), extent in zip(
            (domain.i_range, domain.j_range, domain.k_range), (m, n, k)
        ):
            if not (0 <= lo <= hi <= extent):
                raise ValueError(f"domain {domain} exceeds the iteration space {m}x{n}x{k}")
        total += domain.volume
    if total != m * n * k:
        raise ValueError(
            f"domains cover {total} multiplications, expected {m * n * k}: "
            "the decomposition does not tile the iteration space"
        )


def _ownership_map(shape: tuple[int, int], regions: list[tuple[int, Range, Range]]) -> np.ndarray:
    """Element-owner map: the first listed rank whose region covers the element."""
    owners = np.full(shape, -1, dtype=np.int64)
    for rank, rows, cols in regions:
        view = owners[rows[0] : rows[1], cols[0] : cols[1]]
        view[view == -1] = rank
    return owners


class _CellOwners:
    """Owner map of one matrix over the coordinate-compressed grid.

    The breakpoints of an axis are the sorted endpoints of every region's
    range on it; between two consecutive breakpoints no region starts or
    ends, so all elements of a cell (a breakpoint interval on each axis)
    have the same owner -- the first listed rank whose region covers the
    cell, exactly :func:`_ownership_map`'s rule applied to cells.  Region
    (and therefore block) boundaries always fall on breakpoints.
    """

    def __init__(self, shape: tuple[int, int], regions: list[tuple[int, Range, Range]]) -> None:
        row_edges = sorted({0, shape[0]}.union(*(rows for _, rows, _ in regions)))
        col_edges = sorted({0, shape[1]}.union(*(cols for _, _, cols in regions)))
        self._row_index = {edge: index for index, edge in enumerate(row_edges)}
        self._col_index = {edge: index for index, edge in enumerate(col_edges)}
        self._heights = np.diff(np.array(row_edges, dtype=np.int64))
        self._widths = np.diff(np.array(col_edges, dtype=np.int64))
        self._cells = np.full((len(row_edges) - 1, len(col_edges) - 1), -1, dtype=np.int64)
        painted: set[tuple[Range, Range]] = set()
        for rank, rows, cols in regions:
            if (rows, cols) in painted:  # the first lister already claimed every cell
                continue
            painted.add((rows, cols))
            view = self._cells[self._window(rows, cols)]
            view[view == -1] = rank

    def _window(self, rows: Range, cols: Range) -> tuple[slice, slice]:
        """Cell-index window of an element block whose bounds are breakpoints."""
        return (
            slice(self._row_index[rows[0]], self._row_index[rows[1]]),
            slice(self._col_index[cols[0]], self._col_index[cols[1]]),
        )

    def owner_counts(self, rows: Range, cols: Range) -> tuple[np.ndarray, np.ndarray]:
        """Owners of the ``rows x cols`` block and how many elements each owns.

        Equal to ``np.unique(element_map[block], return_counts=True)``; the
        counts are exact int64 sums of cell areas.
        """
        row_span, col_span = self._window(rows, cols)
        owners = self._cells[row_span, col_span].ravel()
        areas = np.multiply.outer(self._heights[row_span], self._widths[col_span]).ravel()
        if owners.size <= 1:  # one cell, or an empty block (reduceat needs a start)
            return owners, areas
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        starts = np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))
        return owners[starts], np.add.reduceat(areas[order], starts)


def _fetch_block(
    machine: DistributedMachine,
    receiver: int,
    rows: Range,
    cols: Range,
    owners: np.ndarray,
    source: np.ndarray,
    kind: str,
) -> np.ndarray:
    """Assemble the dense ``rows x cols`` block of ``source`` on ``receiver``.

    Parts owned by other ranks are transferred (one message per owner) and
    counted; parts owned by the receiver are free.
    """
    local_owners = owners[rows[0] : rows[1], cols[0] : cols[1]]
    block = machine.zeros((rows[1] - rows[0], cols[1] - cols[0]))
    local_values = source[rows[0] : rows[1], cols[0] : cols[1]]
    for owner in np.unique(local_owners):
        mask = local_owners == owner
        values = local_values[mask]
        if owner == receiver:
            block[mask] = values
        else:
            block[mask] = machine.send(int(owner), receiver, values, kind=kind)
    return block


def _post_block_transfers(
    machine: DistributedMachine,
    cell_owners: _CellOwners,
    blocks: list[tuple[int, Range, Range]],
    kind: str,
) -> None:
    """Post every ``(rank, rows, cols)`` block's exchange with its element owners.

    One message per (block, foreign owner) pair carrying the owner's element
    count, all blocks of one matrix in a single batched update: inputs flow
    owner -> rank; partial outputs flow rank -> owner, where each received
    element costs one accumulation flop.
    """
    # Ranks that share a projection (an A block serves a whole j-fiber)
    # share its owner counts: one lookup per distinct block.
    distinct: dict[tuple[Range, Range], tuple[np.ndarray, np.ndarray]] = {}
    owner_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    for _, rows, cols in blocks:
        found = distinct.get((rows, cols))
        if found is None:
            found = distinct[rows, cols] = cell_owners.owner_counts(rows, cols)
        owner_parts.append(found[0])
        count_parts.append(found[1])
    owners = np.concatenate(owner_parts)
    counts = np.concatenate(count_parts)
    ranks = np.repeat(
        np.array([rank for rank, _, _ in blocks], dtype=np.int64),
        [part.size for part in owner_parts],
    )
    foreign = owners != ranks
    owners, counts, ranks = owners[foreign], counts[foreign], ranks[foreign]
    if kind == "input":
        machine.post_transfers(owners, ranks, counts, kind=kind)
    else:
        machine.post_transfers(ranks, owners, counts, kind=kind)
        machine.counters.add_flops(owners, counts)


def _cuboid_batched(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    ordered: list[CuboidDomain],
) -> np.ndarray:
    """The cuboid executor's batched path; returns the global product.

    Counters come from the per-owner element counts of the compressed owner
    maps -- what the per-rank loop's per-owner messages add up to -- posted
    once per matrix.  In ``plane`` mode every fetched block's values equal
    the dense source slice (each element is delivered exactly once), the
    local products run as stacked GEMMs, one ``np.matmul`` per cuboid shape
    (CARMA-style recursive decompositions produce only a handful of distinct
    shapes), and each partial block lands with one dense accumulate.  In
    ``volume`` mode (counters-only transport) a token is returned as the
    product.  Either way the ranks' ``A`` / ``B`` / ``C_partial`` words are
    posted to the machine's resident-words vector, not stored.
    """
    m, k = a_matrix.shape
    n = b_matrix.shape[1]
    numeric = not machine.transport.counters_only
    a_regions = [(d.rank, d.i_range, d.k_range) for d in ordered]
    b_regions = [(d.rank, d.k_range, d.j_range) for d in ordered]
    c_regions = [(d.rank, d.i_range, d.j_range) for d in ordered]
    _post_block_transfers(machine, _CellOwners((m, k), a_regions), a_regions, kind="input")
    _post_block_transfers(machine, _CellOwners((k, n), b_regions), b_regions, kind="input")

    ranks = np.array([d.rank for d in ordered], dtype=np.intp)
    lm, ln, lk = np.array([d.shape for d in ordered], dtype=np.int64).reshape(-1, 3).T
    machine.post_resident("A", ranks, lm * lk)
    machine.post_resident("B", ranks, lk * ln)
    machine.post_resident("C_partial", ranks, lm * ln)
    # Flops are charged per rank exactly as ``local_multiply`` would.
    machine.counters.add_flops(ranks, 2 * lm * ln * lk)
    c_global = machine.zeros((m, n))  # at the plane dtype; a token in volume mode
    if numeric:
        groups: dict[tuple[int, int, int], list[CuboidDomain]] = {}
        for domain in ordered:
            groups.setdefault(domain.shape, []).append(domain)
        partial_c: dict[int, np.ndarray] = {}
        for members in groups.values():
            # Private copies, as a fetch delivers them.
            a_blocks = np.stack(
                [a_matrix[d.i_range[0] : d.i_range[1], d.k_range[0] : d.k_range[1]]
                 for d in members]
            )
            b_blocks = np.stack(
                [b_matrix[d.k_range[0] : d.k_range[1], d.j_range[0] : d.j_range[1]]
                 for d in members]
            )
            for domain, product in zip(members, np.matmul(a_blocks, b_blocks)):
                partial_c[domain.rank] = product
        # Every element of a partial block is added to its output position
        # exactly once, in rank order like the masked per-owner path.
        for domain in ordered:
            (i0, i1), (j0, j1) = domain.i_range, domain.j_range
            c_global[i0:i1, j0:j1] += partial_c[domain.rank]
    _post_block_transfers(machine, _CellOwners((m, n), c_regions), c_regions, kind="output")
    return c_global


def cuboid_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    domains: list[CuboidDomain],
    machine: DistributedMachine | None = None,
    p: int | None = None,
    memory_words: int | None = None,
) -> CuboidRunResult:
    """Run an arbitrary cuboidal decomposition on the simulator.

    Parameters
    ----------
    a_matrix, b_matrix:
        Global inputs.
    domains:
        One :class:`CuboidDomain` per participating rank; they must tile the
        iteration space.
    machine:
        Optional pre-built simulator; built from ``p``/``memory_words``
        otherwise (``p`` defaults to the number of domains).
    """
    # Operands at the machine's plane dtype, as in cosma_multiply.
    plane_dtype = None if machine is None else machine.transport.dtype
    a_matrix = as_payload(a_matrix, dtype=plane_dtype)
    b_matrix = as_payload(b_matrix, dtype=plane_dtype)
    m, k = a_matrix.shape
    k2, n = b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")
    validate_domains(m, n, k, domains)
    if machine is None:
        p = p if p is not None else max(d.rank for d in domains) + 1
        machine = DistributedMachine(p, memory_words=memory_words or (1 << 20))

    ordered = sorted(domains, key=lambda d: d.rank)
    if machine.transport.planar or machine.transport.counters_only:
        c_global = _cuboid_batched(machine, a_matrix, b_matrix, ordered)
        machine.check_memory()
        return CuboidRunResult(matrix=c_global, domains=tuple(domains), counters=machine.counters)

    a_owners = _ownership_map((m, k), [(d.rank, d.i_range, d.k_range) for d in ordered])
    b_owners = _ownership_map((k, n), [(d.rank, d.k_range, d.j_range) for d in ordered])
    c_owners = _ownership_map((m, n), [(d.rank, d.i_range, d.j_range) for d in ordered])

    # ------------------------------------------------------------------
    # input fetch + local multiplication
    # ------------------------------------------------------------------
    partial_c: dict[int, np.ndarray] = {}
    for domain in ordered:
        a_block = _fetch_block(
            machine, domain.rank, domain.i_range, domain.k_range, a_owners, a_matrix,
            kind="input",
        )
        b_block = _fetch_block(
            machine, domain.rank, domain.k_range, domain.j_range, b_owners, b_matrix,
            kind="input",
        )
        machine.rank(domain.rank).put("A", a_block)
        machine.rank(domain.rank).put("B", b_block)
        product = machine.local_multiply(domain.rank, a_block, b_block)
        partial_c[domain.rank] = product
        machine.rank(domain.rank).put("C_partial", product)

    # ------------------------------------------------------------------
    # reduce partial C blocks onto the element owners and assemble the result
    # ------------------------------------------------------------------
    c_global = machine.zeros((m, n))
    for domain in ordered:
        i0, i1 = domain.i_range
        j0, j1 = domain.j_range
        block = partial_c[domain.rank]
        local_owners = c_owners[i0:i1, j0:j1]
        for owner in np.unique(local_owners):
            mask = local_owners == owner
            values = block[mask]
            if owner != domain.rank:
                values = machine.send(domain.rank, int(owner), values, kind="output")
                machine.rank(int(owner)).counters.flops += int(values.size)
            target = c_global[i0:i1, j0:j1]
            target[mask] += values
            c_global[i0:i1, j0:j1] = target

    machine.check_memory()
    return CuboidRunResult(matrix=c_global, domains=tuple(domains), counters=machine.counters)
