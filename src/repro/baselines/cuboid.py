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
non-power-of-two dimensions); the ownership rule handles that correctly.

A decomposition is one int64 *table* (:func:`domain_table`): a row ``rank, i0,
i1, j0, j1, k0, k1`` per used rank, in rank order.  A caller's list of
:class:`CuboidDomain` objects is converted once on entry, and the objects are
a view of the table's rows (:func:`table_domains`) that only the tests build.

A run is array expressions over the table's columns with no loop over ranks:
ownership is resolved per matrix on the *coordinate-compressed* grid
(:func:`_owner_words` -- one cell per pair of consecutive range endpoints, so
the cost is O(cells), not O(mn + mk + nk)), whose single ``np.minimum``
reduction *is* the ownership rule, and every rank's per-owner element counts
are posted with one ``post_transfers`` per matrix, three per run
(:func:`owner_messages`; CARMA's are memoized with its table, so its runs
and its plan read one copy).  In
``plane`` mode the product is a :class:`~repro.machine.transport.GemmProduct`
of one GEMM box per tile: domains that share an output block and whose
k-ranges abut form a tile, and tiles that abut along j, then along i, over
the same k-range merge further, so a regular grid is one box
(:func:`_product_tiles`); ``volume`` is that engine minus the numerics.  The
executor stays general rather than assuming a regular grid: of the 54 CARMA
points the ledger's campaigns and the roadmap's RPA readings touch, 16 (every
odd-sided one) have partially overlapping projections.  Its reference is the
per-rank loop of ``tests/oracle``, with element-wise owner maps and one
message per (owner, receiver) pair, which never reads the cell grid.  The
engine is :func:`cuboid_run`; CARMA's runner calls it on
:func:`~repro.baselines.carma.carma_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, ShapeToken
from repro.utils.intmath import abutting_runs, sorted_distinct

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


#: Columns of a decomposition table (see :func:`domain_table`).
RANK, I0, I1, J0, J1, K0, K1 = range(7)


def domain_table(domains: list[CuboidDomain] | np.ndarray) -> np.ndarray:
    """A decomposition as one int64 table: a row ``rank, i0, i1, j0, j1, k0, k1``
    per used rank, in rank order (a table passes through, re-sorted)."""
    if not isinstance(domains, np.ndarray):
        domains = np.array(
            [(d.rank, *d.i_range, *d.j_range, *d.k_range) for d in domains], dtype=np.int64
        ).reshape(-1, 7)
    return domains[np.argsort(domains[:, RANK], kind="stable")]


def table_domains(table: np.ndarray) -> list[CuboidDomain]:
    """The table's rows viewed as :class:`CuboidDomain` objects, in row order."""
    return [
        CuboidDomain(rank, (i0, i1), (j0, j1), (k0, k1))
        for rank, i0, i1, j0, j1, k0, k1 in table.tolist()
    ]


def validate_domains(m: int, n: int, k: int, domains: list[CuboidDomain] | np.ndarray) -> None:
    """Check that the cuboids tile the full ``m x n x k`` iteration space.

    The check is volumetric plus per-dimension bounds, and no rank holds two
    cuboids; together with disjointness of the per-rank cuboids (guaranteed
    by every generator in this library) this implies an exact tiling.
    """
    table = domain_table(domains)
    lo, hi = table[:, I0::2], table[:, I1::2]
    outside = ((lo < 0) | (lo > hi) | (hi > (m, n, k))).any(axis=1)
    if outside.any():
        domain = table_domains(table[outside][:1])[0]
        raise ValueError(f"domain {domain} exceeds the iteration space {m}x{n}x{k}")
    ranks = table[:, RANK]
    repeated = ranks[1:][ranks[1:] == ranks[:-1]]
    if repeated.size:
        # The volume cannot see it, and the executor keeps one block per rank.
        raise ValueError(f"rank {repeated[0]} is assigned more than one domain")
    total = int((hi - lo).prod(axis=1).sum())
    if total != m * n * k:
        raise ValueError(
            f"domains cover {total} multiplications, expected {m * n * k}: "
            "the decomposition does not tile the iteration space"
        )


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, offset)`` of a ragged expansion: ``index`` names entry ``i`` of
    ``counts`` ``counts[i]`` times, ``offset`` runs from 0 within each entry."""
    index = np.repeat(np.arange(counts.size), counts)
    return index, np.arange(index.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _owner_words(
    ranks: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every rank's block of one matrix, split by who owns its elements.

    ``ranks`` (ascending) project onto the element blocks ``rows[r, 0] :
    rows[r, 1]`` x ``cols[r, 0] : cols[r, 1]``; an element belongs to the
    first listed (lowest) rank whose block covers it.  Returns int64 ``(owner,
    rank, words)`` triples, one per (block, foreign owner) pair: per rank, how
    many elements of its block each other rank owns.

    The breakpoints of an axis are the sorted endpoints of every block's
    range on it; between two consecutive breakpoints no block starts or ends,
    so all elements of a cell (a breakpoint interval on each axis) have the
    same owner, and a block is a window of whole cells.
    """
    row_edges, col_edges = sorted_distinct(rows), sorted_distinct(cols)
    window = np.concatenate(
        (np.searchsorted(row_edges, rows), np.searchsorted(col_edges, cols)), axis=1
    )
    # Ranks that share a projection (an A block serves a whole j-fiber) share
    # its cells: one expansion per distinct window, keyed by its two corners.
    # (The key fits wherever the cell grid below fits in memory.)
    corners = row_edges.size * col_edges.size
    key = (window[:, 0] * col_edges.size + window[:, 2]) * corners + (
        window[:, 1] * col_edges.size + window[:, 3]
    )
    _, first, member = np.unique(key, return_index=True, return_inverse=True)
    row0, row1, col0, col1 = window[first].T
    which, offset = _ragged((row1 - row0) * (col1 - col0))
    width = (col1 - col0)[which]
    cell_row, cell_col = row0[which] + offset // width, col0[which] + offset % width
    cell = cell_row * (col_edges.size - 1) + cell_col
    # The ownership rule: a cell belongs to the first listed (lowest) rank
    # whose block covers it; ``first`` is a window's first lister.
    owner = np.full((row_edges.size - 1) * (col_edges.size - 1), np.iinfo(np.int64).max)
    np.minimum.at(owner, cell, ranks[first][which])
    # Words per (window, owner): exact int64 sums of cell areas.
    owner = owner[cell]
    order = np.lexsort((owner, which))
    which, owner = which[order], owner[order]
    area = (np.diff(row_edges)[cell_row] * np.diff(col_edges)[cell_col])[order]
    new_group = np.ones(which.size, dtype=bool)
    new_group[1:] = (which[1:] != which[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new_group)
    words = np.add.reduceat(area, starts)
    # Back to the ranks sharing each window (its groups are consecutive).
    groups = np.bincount(which[starts], minlength=first.size)
    rank_index, offset = _ragged(groups[member])
    group = (np.cumsum(groups) - groups)[member][rank_index] + offset
    owners, receivers = owner[starts][group], ranks[rank_index]
    foreign = owners != receivers
    return owners[foreign], receivers[foreign], words[group][foreign]


#: The messages of a run (:func:`owner_messages`): an ``(owner, receiver,
#: words)`` triple of int64 arrays for A, for B and for C.
Messages = tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def owner_messages(table: np.ndarray) -> Messages:
    """The messages a run of the :func:`domain_table` ``table`` posts, one
    :func:`_owner_words` triple per matrix: A's (rows i, columns k), B's (k,
    j) and C's (i, j).  Inputs flow owner -> rank, partial outputs rank ->
    owner."""
    ranks, i_range, j_range, k_range = table[:, RANK], table[:, I0:J0], table[:, J0:K0], table[:, K0:]
    return tuple(_owner_words(ranks, rows, cols)
                 for rows, cols in ((i_range, k_range), (k_range, j_range), (i_range, j_range)))


def counted_rounds(table: np.ndarray | list[CuboidDomain], messages: Messages | None = None) -> np.ndarray:
    """Rounds each rank of a :func:`domain_table` counts in a run, int64 by
    rank: one per message it sends or receives, one message per (block,
    foreign owner) pair of each matrix (the table's :func:`owner_messages`,
    computed here unless the caller holds them as ``messages``)."""
    table = domain_table(table)
    if messages is None:
        messages = owner_messages(table)
    ends = [np.concatenate((owners, receivers)) for owners, receivers, _ in messages]
    return np.bincount(np.concatenate(ends), minlength=int(table[:, RANK].max()) + 1)


def cuboid_run(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    table: np.ndarray | list[CuboidDomain],
    messages: Messages | None = None,
) -> GemmProduct | ShapeToken:
    """Run a cuboidal decomposition on the simulator; returns the global
    product, the :func:`_product_tiles` of ``table`` as GEMM boxes (a token
    in ``volume`` mode, where no box is built).

    ``table`` is a :func:`domain_table` (or the list of
    :class:`CuboidDomain` it is built from), one row per participating rank;
    the cuboids must tile the ``m x k`` by ``k x n`` iteration space of the
    operands, and every rank must be one of the machine's.  ``messages`` are
    the table's :func:`owner_messages` when the caller holds them: then
    ``table`` is the rank-ordered table they were computed from, checked
    against the operands' ``m x n x k`` when they were (as
    :func:`~repro.baselines.carma.carma_messages` does), and neither the
    messages nor the tiling check are computed again.
    """
    (m, k), n = a_matrix.shape, b_matrix.shape[1]
    if messages is None:
        table = domain_table(table)
        validate_domains(m, n, k, table)
        messages = owner_messages(table)
    # Ranks index counter columns: a negative one would wrap, silently.
    outside = (table[:, RANK] < 0) | (table[:, RANK] >= machine.p)
    if outside.any():
        raise ValueError(
            f"domain rank {int(table[outside][0, RANK])} is outside the machine's "
            f"ranks [0, {machine.p})"
        )

    # Counters come from the per-owner element counts of the compressed owner
    # maps, posted once per matrix: one message per (block, foreign owner)
    # pair carrying the owner's element count; inputs flow owner -> rank,
    # partial outputs rank -> owner, where each received element costs one
    # accumulation flop.
    for matrix, (owners, receivers, words) in zip("AB", messages[:2]):
        machine.post_transfers(owners, receivers, words, kind="input", label=f"fetch-{matrix}")

    ranks = table[:, RANK]
    lm, ln, lk = (table[:, I1::2] - table[:, I0::2]).T
    machine.post_resident("A", ranks, lm * lk)
    machine.post_resident("B", ranks, lk * ln)
    machine.post_resident("C_partial", ranks, lm * ln)
    # Every rank multiplies its fetched blocks once.
    machine.post_flops("local-gemm", ranks, 2 * lm * ln * lk)
    owners, senders, words = messages[2]
    machine.post_transfers(senders, owners, words, kind="output", label="reduce-C")
    machine.post_flops("accumulate-C", owners, words)
    machine.check_memory()
    if machine.transport.counters_only:
        return ShapeToken((m, n))
    return GemmProduct(a_matrix, b_matrix, _product_tiles(table), (m, n), machine.transport.dtype)


def _merge_abutting(boxes: np.ndarray, axis: int) -> np.ndarray:
    """Merge boxes (rows ``i0, i1, j0, j1, k0, k1``) that agree on the other
    two axes' ranges and abut along ``axis`` into one box per maximal run."""
    lo, hi = 2 * axis, 2 * axis + 1
    others = [column for column in range(6) if column not in (lo, hi)]
    boxes = boxes[np.lexsort((boxes[:, lo], *boxes[:, others[::-1]].T))]
    first, start, end = abutting_runs(boxes[:, lo], boxes[:, hi], keys=boxes[:, others])
    merged = boxes[first]
    merged[:, lo], merged[:, hi] = start, end
    return merged


def _product_tiles(table: np.ndarray) -> np.ndarray:
    """The GEMM boxes of a run's product, rows ``i0, i1, j0, j1, k0, k1``:
    domains merged along k, then along j, then along i.

    Every fetched block's values equal the dense source slice (each element
    is delivered exactly once), and partial blocks of one output block sum
    into it: domains that share an output block and whose k-ranges abut are
    one tile over the merged k-range.  Tiles that share an i-range and a
    k-range and abut along j are one tile, and then tiles that share a
    j-range and a k-range and abut along i: a regular grid is a single box
    ``A @ B`` (768^3 on p = 256 or 1024).  A merged tile is the union of its
    domains, so every tiling -- output blocks that overlap partially,
    k-pieces listed out of rank order or separated by other domains' --
    still adds each domain's product exactly once.
    """
    tiles = table[:, I0:]
    for axis in (2, 1, 0):
        tiles = _merge_abutting(tiles, axis)
    return tiles
