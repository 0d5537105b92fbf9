"""The COSMA distributed executor (Algorithm 1 on the machine simulator).

Execution outline for a fitted grid ``[pm x pn x pk]``:

1. every used rank starts with its owned slices of A and B
   (:func:`repro.core.decomposition.distribute_matrices`);
2. the local ``k`` extent is processed in ``t`` communication rounds of
   ``step_size`` outer products each (Algorithm 1, lines 8-11): in every round
   the pieces of the A panel for the round's k-chunk are broadcast along the
   ``j`` fiber and the pieces of the B panel along the ``i`` fiber, after
   which each rank multiplies the received panels into its ``lm x ln``
   accumulator;
3. the accumulators are reduced along the ``k`` fiber onto the C owners
   (Algorithm 1, line 12).

Every transferred word is counted by the machine's communication layer; the
returned :class:`CosmaRunResult` exposes the counters, the assembled global
product and the per-round volumes needed by the overlap performance model.

``plane`` and ``volume`` runs take the batched round engine
(:func:`_cosma_batched`; ``volume`` is that engine minus the numerics), with
``use_rma`` or without.  Its accounting is three functions of a
:class:`CosmaDecomposition` -- :func:`post_owned_words`,
:func:`post_fiber_exchange` and :func:`post_c_reduction` -- and they are the
one accounting implementation of the grid family: SUMMA runs them on
``pm x pn x 1`` with its panel width as the step, 2.5D on ``q x q x c`` with
one whole-layer gather round (:mod:`repro.baselines.summa`,
:mod:`repro.baselines.grid25d`).  What is posted when:

* **per run** -- the owned words; the panel exchange as ONE expansion to
  ranks (Algorithm 1 is a steady-state schedule and every counter is linear
  in a round's overlap widths, so the rounds are summed on the width table,
  at ``(layer, owner)`` size, before anything of size p exists); the C
  reduction, one more delta;
* **per round** -- the engine's boundary call (COSMA's labelled
  ``log_round``, SUMMA's ``commit_round``, none for 2.5D) and an entry of
  COSMA's ``round_volumes``, read off the ``(layer, position)`` tables of the
  round's class, never a per-rank array;
* **per round class** (a maximal run of rounds with equal widths) -- a
  ``fields x p`` delta, but only under a tracer: a round span reads the
  counter matrix at its boundary, so a traced run adds class by class, through
  the same expand function.  Tracing is the only reader of per-class deltas
  (:func:`fiber_exchange_rounds`, which is also what the hop-expansion oracle
  in ``tests/test_cosma_round_classes.py`` checks).

The product is one GEMM into a single C sheet.  The per-hop loop in
:func:`cosma_multiply` serves ``legacy`` / ``zerocopy`` only and is the parity
suites' oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.decomposition import CosmaDecomposition, build_decomposition, distribute_matrices
from repro.core.grid import ProcessorGrid
from repro.machine.collectives import broadcast, reduce, tree_fanout
from repro.machine.counters import (
    FLOPS,
    INPUT_WORDS,
    MESSAGES_RECEIVED,
    MESSAGES_SENT,
    OUTPUT_WORDS,
    ROUND_START_WORDS,
    ROUNDS,
    WORDS_RECEIVED,
    WORDS_SENT,
    CommCounters,
)
from repro.machine.rma import rma_get
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import PayloadPlane, ShapeToken, as_payload
from repro.utils.intmath import run_starts, sorted_distinct, split_offsets


@dataclass
class CosmaRunResult:
    """Outcome of a COSMA run on the simulator."""

    matrix: np.ndarray
    decomposition: CosmaDecomposition
    counters: CommCounters
    num_rounds: int
    #: Per-round maximum words received by any rank (drives the overlap model).
    round_volumes: list[int] = field(default_factory=list)
    peak_resident_words: int = 0

    @property
    def grid(self) -> ProcessorGrid:
        return self.decomposition.grid

    @property
    def mean_words_per_rank(self) -> float:
        return self.counters.mean_words_per_rank()

    @property
    def max_words_per_rank(self) -> int:
        return self.counters.max_words_per_rank()


def cosma_multiply(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    p: int,
    memory_words: int,
    machine: DistributedMachine | None = None,
    max_idle_fraction: float = 0.03,
    grid: ProcessorGrid | None = None,
    use_rma: bool = False,
) -> CosmaRunResult:
    """Multiply ``A @ B`` with COSMA on a simulated ``p``-processor machine.

    Parameters
    ----------
    a_matrix, b_matrix:
        Global input matrices (``m x k`` and ``k x n``).
    p:
        Number of processors.
    memory_words:
        Local memory ``S`` per processor, in words.
    machine:
        Optional pre-built simulator (its counters are *not* reset); a fresh
        one is created by default.
    max_idle_fraction:
        ``delta`` for the grid-fitting step.
    grid:
        Optional explicit grid override (ablation experiments).
    use_rma:
        Use one-sided gets for the panel exchange instead of broadcast trees
        (section 7.4); the volume is identical, the round accounting differs.
    """
    # Normalize operands at the machine's plane dtype: a float32 machine
    # receives float32 payloads directly, never a float64 round-trip.
    plane_dtype = None if machine is None else machine.transport.dtype
    a_matrix = as_payload(a_matrix, dtype=plane_dtype)
    b_matrix = as_payload(b_matrix, dtype=plane_dtype)
    m, k = a_matrix.shape
    k2, n = b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")

    decomposition = build_decomposition(
        m, n, k, p, memory_words, max_idle_fraction=max_idle_fraction, grid=grid
    )
    if machine is None:
        machine = DistributedMachine(p, memory_words=memory_words)
    if machine.transport.counters_only or machine.transport.planar:
        # Batched round engine: identical schedule, vectorized accounting;
        # numerics (plane mode) run as one GEMM over the operand planes.
        return _cosma_batched(a_matrix, b_matrix, machine, decomposition, use_rma)
    owned = distribute_matrices(decomposition, a_matrix, b_matrix)
    for rank, pieces in owned.items():
        machine.rank(rank).put("A_own", pieces["A"])
        machine.rank(rank).put("B_own", pieces["B"])

    gridspec = decomposition.grid
    domains = decomposition.domains
    # Per-rank accumulators for the local C block.
    for domain in domains:
        lm = domain.i_range[1] - domain.i_range[0]
        ln = domain.j_range[1] - domain.j_range[0]
        machine.rank(domain.rank).put("C_acc", machine.zeros((lm, ln)))

    domains_by_rank = {d.rank: d for d in domains}
    round_volumes: list[int] = []
    num_rounds = 0

    # ------------------------------------------------------------------
    # main loop: process each k-fiber's local k extent in steps
    # ------------------------------------------------------------------
    # All ranks share the same number of steps because the k extents are
    # nearly equal; iterate over the global maximum.
    max_lk = max(d.k_range[1] - d.k_range[0] for d in domains)
    step = decomposition.step_size
    offsets = list(range(0, max_lk, step))

    for chunk_index, chunk_offset in enumerate(offsets):
        # Round-delta tracking: mark the per-rank totals instead of deep
        # copying the whole counter set every round.
        machine.counters.mark_round_start()

        def chunk_bounds(domain):
            k0, k1 = domain.k_range
            c0 = min(k0 + chunk_offset, k1)
            c1 = min(c0 + step, k1)
            return c0, c1

        # --- exchange the A panel chunks along every j fiber (tree broadcast, §7.2) ---
        a_chunks: dict[int, np.ndarray] = {}
        for pi in range(gridspec.pm):
            for pk in range(gridspec.pk):
                fiber = decomposition.j_fiber(pi, pk)
                sample = domains_by_rank[fiber[0]]
                c0, c1 = chunk_bounds(sample)
                if c0 >= c1:
                    continue
                lm = sample.i_range[1] - sample.i_range[0]
                for r in fiber:
                    a_chunks[r] = machine.zeros((lm, c1 - c0))
                for owner_rank in fiber:
                    owner = domains_by_rank[owner_rank]
                    o0, o1 = owner.a_owned_k_range
                    lo, hi = max(o0, c0), min(o1, c1)
                    if lo >= hi:
                        continue
                    piece = machine.rank(owner_rank).get("A_own")[:, lo - o0 : hi - o0]
                    if use_rma:
                        for r in fiber:
                            delivered = (
                                machine.transport.self_copy(piece)
                                if r == owner_rank
                                else rma_get(machine, r, owner_rank, piece)
                            )
                            a_chunks[r][:, lo - c0 : hi - c0] = delivered
                    else:
                        received = broadcast(machine, owner_rank, fiber, piece, kind="input")
                        for r in fiber:
                            a_chunks[r][:, lo - c0 : hi - c0] = received[r]

        # --- exchange the B panel chunks along every i fiber ---
        b_chunks: dict[int, np.ndarray] = {}
        for pj in range(gridspec.pn):
            for pk in range(gridspec.pk):
                fiber = decomposition.i_fiber(pj, pk)
                sample = domains_by_rank[fiber[0]]
                c0, c1 = chunk_bounds(sample)
                if c0 >= c1:
                    continue
                ln = sample.j_range[1] - sample.j_range[0]
                for r in fiber:
                    b_chunks[r] = machine.zeros((c1 - c0, ln))
                for owner_rank in fiber:
                    owner = domains_by_rank[owner_rank]
                    o0, o1 = owner.b_owned_k_range
                    lo, hi = max(o0, c0), min(o1, c1)
                    if lo >= hi:
                        continue
                    piece = machine.rank(owner_rank).get("B_own")[lo - o0 : hi - o0, :]
                    if use_rma:
                        for r in fiber:
                            delivered = (
                                machine.transport.self_copy(piece)
                                if r == owner_rank
                                else rma_get(machine, r, owner_rank, piece)
                            )
                            b_chunks[r][lo - c0 : hi - c0, :] = delivered
                    else:
                        received = broadcast(machine, owner_rank, fiber, piece, kind="input")
                        for r in fiber:
                            b_chunks[r][lo - c0 : hi - c0, :] = received[r]

        # --- local multiply-accumulate on every rank that has work this round ---
        for domain in domains:
            rank = domain.rank
            if rank not in a_chunks or rank not in b_chunks:
                continue
            machine.local_multiply(
                rank, a_chunks[rank], b_chunks[rank], accumulate_into=machine.rank(rank).get("C_acc")
            )

        num_rounds += 1
        round_volumes.append(int(machine.counters.max_round_delta()))
        machine.check_memory()
        machine.log_round(f"cosma-step-{chunk_index}")
        machine.commit_round()

    # ------------------------------------------------------------------
    # reduce the partial C blocks along the k fibers onto the owners
    # ------------------------------------------------------------------
    c_global = machine.zeros((m, n))
    for pi in range(gridspec.pm):
        for pj in range(gridspec.pn):
            fiber = decomposition.k_fiber(pi, pj)
            owner = decomposition.coords_to_rank(pi, pj, 0)
            blocks = {r: machine.rank(r).get("C_acc") for r in fiber}
            if len(fiber) > 1:
                total = reduce(machine, owner, fiber, blocks, kind="output")
            else:
                total = blocks[owner]
            machine.rank(owner).put("C_final", total)
            domain = domains_by_rank[owner]
            i0, i1 = domain.i_range
            j0, j1 = domain.j_range
            c_global[i0:i1, j0:j1] = total

    machine.check_memory()
    return CosmaRunResult(
        matrix=c_global,
        decomposition=decomposition,
        counters=machine.counters,
        num_rounds=num_rounds,
        round_volumes=round_volumes,
        peak_resident_words=machine.peak_resident_words,
    )


# ---------------------------------------------------------------------------
# Batched round engine (volume + plane modes)
# ---------------------------------------------------------------------------
def _sharded_gemm(
    machine: DistributedMachine,
    a_data: np.ndarray,
    b_data: np.ndarray,
    c_plane: PayloadPlane,
) -> None:
    """Run the product on the shard pool: ``machine.shards`` worker processes.

    The parent copies A and B into shared-memory segments once; each worker
    owns a contiguous row stripe of the output and computes
    ``out[r0:r1] = a[r0:r1] @ b`` straight into the shared output segment.
    Only (job id, slice spec) messages cross the pipes.  All counters were
    already posted in the parent -- nothing here touches accounting.
    """
    from repro.machine.shard import get_pool

    m = int(c_plane.data.shape[1])
    pool = get_pool(machine.shards)
    trace = machine.trace
    try:
        pool.share("cosma.A", a_data)
        pool.share("cosma.B", b_data)
        out = pool.share_zeros("cosma.OUT", c_plane.data.shape[1:], a_data.dtype)
        specs = [
            {"a": "cosma.A", "b": "cosma.B", "out": "cosma.OUT", "rows": [r0, r1]}
            for r0, r1 in split_offsets(m, machine.shards)
        ]
        start_ns = trace.tracer.now_ns() if trace is not None else 0
        infos = pool.run("gemm_rows", specs)
        if trace is not None:
            for shard, (info, rows) in enumerate(zip(infos, split_offsets(m, machine.shards))):
                trace.tracer.complete(
                    "cosma-shard-gemm", cat="gemm", start_ns=start_ns,
                    dur_ns=int(info.get("seconds", 0.0) * 1e9),
                    args={"shard": shard, "rows": list(rows)},
                    track="gemm",
                )
        # Copy the product out of shared memory before the segments die; the
        # plane (and everything downstream) must never reference pool-owned
        # buffers or releasing them would raise BufferError.
        c_plane.data[0][...] = out
        out = None
    finally:
        pool.release()


def _c_block_words(decomposition: CosmaDecomposition) -> np.ndarray:
    """Words of every ``(pi, pj)`` block of C, row-major."""
    return np.multiply.outer(
        np.diff(decomposition.i_bounds), np.diff(decomposition.j_bounds)
    ).ravel()


def post_owned_words(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    a_name: str,
    b_name: str,
    c_name: str,
) -> None:
    """Post every used rank's owned A / B slices and its C block as resident.

    Posted, not stored: the sizes the per-hop loop's rank stores would hold
    go to the machine's resident-words vector, one array expression per block
    name (the per-hop loop's names, so both paths share one ledger on a
    machine), and the rank stores stay empty.
    """
    grid = decomposition.grid
    lm = np.diff(decomposition.i_bounds)
    ln = np.diff(decomposition.j_bounds)
    # Ownership slices: the A split depends on (pj, kk) only, the B split on
    # (pi, kk) only (see build_decomposition).
    a_width = np.diff(decomposition.a_bounds)  # (pk, pn)
    b_width = np.diff(decomposition.b_bounds)  # (pk, pm)
    # Ranks are row-major in (pi, pj, kk); the pk partial C blocks of a k
    # fiber count once per rank.
    used = slice(0, grid.p_used)
    machine.post_resident(a_name, used, (lm[:, None, None] * a_width.T[None, :, :]).ravel())
    machine.post_resident(b_name, used, (b_width.T[:, None, :] * ln[None, :, None]).ravel())
    machine.post_resident(c_name, used, np.repeat(_c_block_words(decomposition), grid.pk))


class _PanelExchange:
    """A decomposition's panel exchange as tables: every round's overlap
    widths, and their expansion to per-rank counters.

    In round ``r`` every k-layer moves its ``r``-th chunk of ``step_size``
    outer products: the owners of the chunk's A panel send their pieces along
    their ``j`` fiber, the owners of its B panel along their ``i`` fiber
    (owners whose slice misses the chunk send nothing), and every rank of the
    layer multiplies the panels into its C block.  ``exchange`` is how a
    piece reaches the other ``q - 1`` ranks of the fiber: ``"tree"``, a
    binomial broadcast; ``"get"``, one-sided gets (a star, the round charged
    to the origin only); ``"gather"``, direct sends (the same star, rounds on
    both ends).

    A round's schedule is a function of the overlap widths between its
    k-chunk and each ownership slice.  ``table`` holds them for the whole
    schedule, one broadcast expression: row ``r`` is, for every k-layer, the
    width of round ``r``'s clamped chunk and its overlap with each A / B
    ownership slice of the layer.

    No hop is expanded.  In a fiber of ``q`` positions rooted at owner ``o``,
    position ``(pos - o) % q`` sends that position's fan-out of messages and
    receives one unless it is the root; summed over owners, a position sends
    the circulant product ``widths @ fan`` and receives every width but its
    own, in units of its rank's block side (``lm`` for A pieces, ``ln`` for
    B).  Every counter is therefore *linear* in the widths (and in which of
    them are positive): any set of rounds is added by summing its table rows
    at ``(layer, position)`` size first and expanding to ranks once
    (:meth:`expand`).
    """

    def __init__(self, decomposition: CosmaDecomposition, exchange: str) -> None:
        pm, pn, pk = self.grid = decomposition.grid
        self.exchange = exchange
        self.lm = np.diff(decomposition.i_bounds)
        self.ln = np.diff(decomposition.j_bounds)
        k_lo, k_hi = decomposition.k_bounds[:-1], decomposition.k_bounds[1:]
        a_lo, a_hi = decomposition.a_bounds[:, :-1], decomposition.a_bounds[:, 1:]  # (pk, pn)
        b_lo, b_hi = decomposition.b_bounds[:, :-1], decomposition.b_bounds[:, 1:]  # (pk, pm)

        def circulant(q: int) -> np.ndarray:
            """``fan[o, pos]``: messages position ``pos`` sends of owner ``o``'s piece
            (the star sends all ``q - 1`` from the owner itself)."""
            fanout = np.array(tree_fanout(q) if exchange == "tree" else [q - 1] + [0] * (q - 1))
            return fanout[(np.arange(q) - np.arange(q)[:, None]) % q]

        self.fan_a, self.fan_b = circulant(pn), circulant(pm)
        step = decomposition.step_size
        offsets = np.arange(0, int((k_hi - k_lo).max()), step, dtype=np.int64)
        c0 = np.minimum(k_lo + offsets[:, None], k_hi)  # (round, layer)
        c1 = np.minimum(c0 + step, k_hi)
        # Written in place: the table is the largest array of a run.
        self.table = np.empty((len(offsets), pk * (1 + pn + pm)), dtype=np.int64)
        chunk_w, w_a, w_b = self._widths(self.table)
        np.subtract(c1, c0, out=chunk_w)
        for widths, lo, hi in ((w_a, a_lo, a_hi), (w_b, b_lo, b_hi)):
            np.minimum(hi, c1[:, :, None], out=widths)
            widths -= np.maximum(lo, c0[:, :, None])
            np.maximum(widths, 0, out=widths)

    def _widths(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table rows as chunk widths ``(round, layer)`` and A / B overlap
        widths ``(round, layer, owner)``."""
        pm, pn, pk = self.grid
        split = pk * (1 + pn)
        return (rows[:, :pk], rows[:, pk:split].reshape(-1, pk, pn),
                rows[:, split:].reshape(-1, pk, pm))

    def _by_rank(self, w_a, w_b, lm, ln) -> tuple[np.ndarray, np.ndarray]:
        """(sent, received) on the ``(pm, pn, pk)`` grid given ``(layer, owner)``
        widths: ``lm`` per unit of A width along the ``j`` fiber, ``ln`` per unit
        of B width along the ``i`` fiber."""
        def exchanged(widths, fan):  # as (position, layer) tables
            return (widths @ fan).T, (widths.sum(axis=1, keepdims=True) - widths).T

        sent_a, received_a = exchanged(w_a, self.fan_a)
        sent_b, received_b = exchanged(w_b, self.fan_b)
        return lm * sent_a + sent_b[:, None] * ln, lm * received_a + received_b[:, None] * ln

    def expand(self, data: np.ndarray, rows: np.ndarray) -> None:
        """Add the rounds whose table rows are ``rows`` to the ``(field, rank)``
        counter array ``data``: the one place a width becomes a per-rank count."""
        pm, pn, pk = self.grid
        # Ranks are row-major in (pi, pj, kk); a layer that ran out of k has
        # zero widths throughout and its ranks stay as they are.
        fields = data[:, : pm * pn * pk].reshape(-1, pm, pn, pk)
        lm, ln = self.lm[:, None, None], self.ln[:, None]
        chunk_w, w_a, w_b = self._widths(rows)
        sent, received = self._by_rank(w_a.sum(axis=0), w_b.sum(axis=0), lm, ln)
        fields[WORDS_SENT] += sent
        fields[WORDS_RECEIVED] += received
        fields[INPUT_WORDS] += sent + received
        sent, received = self._by_rank(
            np.count_nonzero(w_a, axis=0), np.count_nonzero(w_b, axis=0), 1, 1)
        fields[MESSAGES_SENT] += sent
        fields[MESSAGES_RECEIVED] += received
        # A get is charged to its origin only; a send or a tree hop to both ends.
        fields[ROUNDS] += received if self.exchange == "get" else received + sent
        fields[FLOPS] += 2 * chunk_w.sum(axis=0) * lm * ln

    def classes(self, machine: DistributedMachine) -> Iterator[tuple[range, CommCounters]]:
        """Rounds with equal rows have the identical schedule, and they are
        consecutive (every layer's chunk moves monotonically through its
        ownership slices, so a row never comes back): a *round class* is a run
        of rounds, yielded as ``(rounds, delta)`` with one round expanded."""
        return machine.round_classes(
            self.table, lambda delta, row: self.expand(delta.matrix.data, row[None])
        )

    def round_volumes(self) -> list[int]:
        """Per round, the most words (sent + received) any rank moves in it.

        From the classes' ``(layer, position)`` tables only.  Rank ``(i, j)``
        of a layer moves ``lm_i * by_j[j] + by_i[i] * ln_j``, so over the ranks
        whose block sides are ``(u, v)`` the maximum is ``u * max by_j + v *
        max by_i``, each taken over the positions with that side -- and a
        split has at most two distinct sides.
        """
        pm, pn, _ = self.grid
        starts = run_starts(self.table)
        _, w_a, w_b = self._widths(self.table[starts])
        # Sent plus received by position: widths @ fan + (sum of widths - own).
        by_j = w_a @ (self.fan_a + 1 - np.eye(pn, dtype=np.int64))  # (class, layer, pj)
        by_i = w_b @ (self.fan_b + 1 - np.eye(pm, dtype=np.int64))  # (class, layer, pi)
        tops_i = [(u, by_i[:, :, self.lm == u].max(axis=2)) for u in sorted_distinct(self.lm)]
        volumes = np.zeros(len(starts), dtype=np.int64)
        for v in sorted_distinct(self.ln):
            top_j = by_j[:, :, self.ln == v].max(axis=2)
            for u, top_i in tops_i:
                np.maximum(volumes, (u * top_j + v * top_i).max(axis=1), out=volumes)
        return np.repeat(volumes, np.diff(np.r_[starts, len(self.table)])).tolist()

    def mark_last_round(self, counters: CommCounters) -> None:
        """Leave ``ROUND_START_WORDS`` as the per-hop loop does: every rank's
        total words at the start of the last round."""
        pm, pn, pk = self.grid
        counters.mark_round_start()
        marked = counters.matrix.data[ROUND_START_WORDS, : pm * pn * pk].reshape(pm, pn, pk)
        _, w_a, w_b = self._widths(self.table[-1:])
        sent, received = self._by_rank(w_a[0], w_b[0], self.lm[:, None, None], self.ln[:, None])
        marked -= sent + received


def fiber_exchange_rounds(
    machine: DistributedMachine, decomposition: CosmaDecomposition, exchange: str
) -> Iterator[tuple[range, CommCounters]]:
    """The round classes of the decomposition's panel exchange, each written
    once into a scratch counter set: ``(rounds, delta)`` with ``delta`` one
    round of the class (see :class:`_PanelExchange`).  Nothing is added to the
    machine.  Only a traced run posts class by class; this is also the form the
    hop-expansion oracle checks."""
    return _PanelExchange(decomposition, exchange).classes(machine)


def post_fiber_exchange(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    exchange: str,
    boundary: Callable[[int], None] | None = None,
    round_words: bool = False,
) -> list[int]:
    """Add the decomposition's whole panel exchange to the machine's counters,
    calling the engine's round boundary ``boundary(r)`` once per round.

    Untraced, a run is ONE expansion to ranks: the width table's column sums
    go through :meth:`_PanelExchange.expand` into the live counter matrix, so
    the O(p) work is a constant number of array operations whatever the round
    count.  A round span reads the matrix at its boundary, so under a tracer
    the same function expands class by class and :meth:`post_rounds
    <repro.machine.simulator.DistributedMachine.post_rounds>` alternates adds
    and boundaries.

    With ``round_words`` (COSMA's round bookkeeping) the start of the last
    round is left marked in ``ROUND_START_WORDS`` and the per-round maximum
    words of any rank are returned; otherwise an empty list.
    """
    panels = _PanelExchange(decomposition, exchange)
    if machine.trace is not None:
        for rounds, delta in panels.classes(machine):
            machine.post_rounds(delta, rounds, boundary)
    else:
        panels.expand(machine.counters.matrix.data, panels.table)
        if boundary is not None:
            for r in range(len(panels.table)):
                boundary(r)
    if not round_words:
        return []
    panels.mark_last_round(machine.counters)
    return panels.round_volumes()


def post_c_reduction(machine: DistributedMachine, decomposition: CosmaDecomposition) -> None:
    """Count the binomial reduction of the partial C blocks along every k fiber
    onto its ``kk = 0`` rank, and post the reduced blocks those ranks then hold.

    One more delta, added once.  The broadcast tree mirrored: every position
    but the root sends its block once, position ``kk`` receives (and combines,
    a flop per word) ``fanout[kk]``.
    """
    pm, pn, pk = decomposition.grid
    mn_outer = _c_block_words(decomposition)
    if pk > 1:
        received = np.array(tree_fanout(pk))
        sent = np.arange(pk) > 0
        delta = CommCounters.for_ranks(machine.p)
        rows = delta.matrix.data[:, : pm * pn * pk].reshape(-1, pm * pn, pk)
        rows[WORDS_SENT] = mn_outer[:, None] * sent
        rows[WORDS_RECEIVED] = rows[FLOPS] = mn_outer[:, None] * received
        rows[MESSAGES_SENT] = sent
        rows[MESSAGES_RECEIVED] = received
        rows[ROUNDS] = sent + received
        rows[OUTPUT_WORDS] = rows[WORDS_SENT] + rows[WORDS_RECEIVED]
        machine.post_rounds(delta, range(1))
    machine.post_resident("C_final", slice(0, pm * pn * pk, pk), mn_outer)


def _cosma_batched(
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    use_rma: bool,
) -> CosmaRunResult:
    """Run COSMA's schedule with vectorized accounting and one-GEMM numerics.

    Counts the exact communication schedule of the per-hop reference path --
    the same rounds, the same binomial broadcast/reduction trees (or, with
    ``use_rma``, the same one-sided gets), the same payload sizes -- so the
    counters are byte-identical to the ``legacy``/``zerocopy`` execution at a
    fraction of the Python cost.  The accounting is the three functions
    above; what is COSMA's own is the round boundary (a labelled round with
    its volume) and the numerics.

    In ``volume`` mode the accounting is the whole story (payloads are
    tokens).  In ``plane`` mode the operands live in :class:`PayloadPlane`
    stacks:

    * A and B are single-sheet planes over the global matrices; every rank's
      owned piece and every broadcast delivery is a rectangular view;
    * C is a single sheet too: the round-chunked multiply-accumulates and the
      k-fiber reduction of the reference path collapse into one GEMM over the
      whole k extent (same sums, associated by BLAS instead of per chunk and
      per layer), on the shard pool when ``machine.shards > 1``.
    """
    m, n, k = decomposition.m, decomposition.n, decomposition.k
    numeric = not machine.transport.counters_only
    if numeric:
        machine.register_plane(
            "cosma.A", PayloadPlane("cosma.A", data=np.asarray(a_matrix)[None]),
            replace=True,
        )
        machine.register_plane(
            "cosma.B", PayloadPlane("cosma.B", data=np.asarray(b_matrix)[None]),
            replace=True,
        )
        c_plane = machine.new_plane("cosma.C", (1, m, n))
        c_global = c_plane.data[0]
    else:
        c_global = ShapeToken((m, n))
    post_owned_words(machine, decomposition, "A_own", "B_own", "C_acc")
    # The reference path checks memory at the end of every round, but the
    # rank stores (A_own / B_own / C_acc) do not change between rounds -- the
    # per-round check always sees the same footprint.  One check up front
    # records the identical peak and enforces the identical budget.
    machine.check_memory()
    # Traced runs split the batched accounting from the GEMM below, so a
    # plane-mode profile shows where the wall time actually goes.
    trace = machine.trace
    accounting_span = (
        trace.tracer.span(
            "cosma-counter-accounting", cat="phase",
            args={"rounds": decomposition.num_steps, "mode": machine.mode},
        )
        if trace is not None
        else nullcontext()
    )
    with accounting_span:
        round_volumes = post_fiber_exchange(
            machine, decomposition, "get" if use_rma else "tree",
            lambda r: machine.log_round(f"cosma-step-{r}"), round_words=True,
        )

    # ------------------------------------------------------------------
    # numerics: one GEMM over the whole k extent into the single C sheet
    # ------------------------------------------------------------------
    if numeric:
        sharded = machine.shards > 1
        gemm_span = (
            trace.tracer.span(
                "cosma-plane-gemm", cat="gemm",
                args={"layers": decomposition.grid.pk, "m": m, "n": n, "k": k,
                      "shards": machine.shards if sharded else 1},
                track="gemm",
            )
            if trace is not None
            else nullcontext()
        )
        with gemm_span:
            a_data = np.asarray(a_matrix)
            b_data = np.asarray(b_matrix)
            if sharded:
                _sharded_gemm(machine, a_data, b_data, c_plane)
            else:
                np.matmul(a_data, b_data, out=c_global)

    # The C reduction is counted only: the GEMM already summed over k.
    post_c_reduction(machine, decomposition)
    machine.check_memory()
    return CosmaRunResult(
        matrix=c_global,
        decomposition=decomposition,
        counters=machine.counters,
        num_rounds=len(round_volumes),
        round_volumes=round_volumes,
        peak_resident_words=machine.peak_resident_words,
    )


__all__ = ["cosma_multiply", "CosmaRunResult", "broadcast"]
