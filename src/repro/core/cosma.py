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
:func:`fiber_exchange_rounds` (Algorithm 1 is a steady-state schedule, so each
*distinct* round is posted once, a round class, and its counter delta
replayed) and :func:`post_c_reduction` -- and they are the one accounting
implementation of the grid family: SUMMA runs them on ``pm x pn x 1`` with its
panel width as the step, 2.5D on ``q x q x c`` with one whole-layer gather
round (:mod:`repro.baselines.summa`, :mod:`repro.baselines.grid25d`).  The
product is one GEMM into a single C sheet.  The per-hop loop in
:func:`cosma_multiply` serves ``legacy`` / ``zerocopy`` only and is the parity
suites' oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.decomposition import CosmaDecomposition, build_decomposition, distribute_matrices
from repro.core.grid import ProcessorGrid
from repro.machine.collectives import broadcast, broadcast_hops, reduce, reduce_hops
from repro.machine.counters import CommCounters
from repro.machine.rma import rma_get
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import PayloadPlane, ShapeToken, as_payload
from repro.utils.intmath import split_offsets


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
    # Per-rank accumulators for the local C block.
    for domain in decomposition.domains:
        lm = domain.i_range[1] - domain.i_range[0]
        ln = domain.j_range[1] - domain.j_range[0]
        machine.rank(domain.rank).put("C_acc", machine.zeros((lm, ln)))

    domains_by_rank = {d.rank: d for d in decomposition.domains}
    round_volumes: list[int] = []
    num_rounds = 0

    # ------------------------------------------------------------------
    # main loop: process each k-fiber's local k extent in steps
    # ------------------------------------------------------------------
    # All ranks share the same number of steps because the k extents are
    # nearly equal; iterate over the global maximum.
    max_lk = max(d.k_range[1] - d.k_range[0] for d in decomposition.domains)
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
        for domain in decomposition.domains:
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


#: Transfers after which :func:`fiber_exchange_rounds` posts what a class has
#: gathered so far instead of gathering further layers.
_POST_BATCH = 1 << 15


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


def fiber_exchange_rounds(
    machine: DistributedMachine, decomposition: CosmaDecomposition, exchange: str
) -> Iterator[tuple[range, CommCounters]]:
    """The round classes of the decomposition's panel exchange, each posted once.

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
    k-chunk and each ownership slice, and those take O(pk (pm + pn)) distinct
    values however many rounds there are.  The whole schedule's width table
    is one broadcast expression and a maximal run of equal rows is a *round
    class*, posted once into a scratch counter set and yielded as ``(rounds,
    delta)`` (:meth:`DistributedMachine.round_classes`).  The caller adds the
    delta once per round (``post_round``) and keeps its own round boundary,
    so spans, ``round_log`` and ``round_start_words`` mean what they mean on
    the per-hop path.
    """
    pm, pn, pk = decomposition.grid
    lm = np.diff(decomposition.i_bounds)
    ln = np.diff(decomposition.j_bounds)
    mn_outer = _c_block_words(decomposition)
    k_lo, k_hi = decomposition.k_bounds[:-1], decomposition.k_bounds[1:]
    a_lo, a_hi = decomposition.a_bounds[:, :-1], decomposition.a_bounds[:, 1:]  # (pk, pn)
    b_lo, b_hi = decomposition.b_bounds[:, :-1], decomposition.b_bounds[:, 1:]  # (pk, pm)

    # ------------------------------------------------------------------
    # round-invariant schedule structure
    # ------------------------------------------------------------------
    # Hop arrays, precomputed per owner *position* and mapped onto the
    # row-major rank layout.  A j-fiber (pi, *, kk) rooted at owner pj_o
    # performs hops fiber[(pj_o + s) % pn] -> fiber[(pj_o + d) % pn]; the
    # arrays below hold those rank ids, sources in [0] and destinations in
    # [1], for every (pi | pj, owner, hop), with the layer offset kk added at
    # use.  The star (position 0 -> every other position) has the same q - 1
    # hops per owner as the binomial tree.
    def fiber_hops(q: int) -> np.ndarray:
        if exchange == "tree":
            hops = np.array(broadcast_hops(q), dtype=np.int64).T
        else:
            hops = np.stack([np.zeros(q - 1, dtype=np.int64), np.arange(1, q, dtype=np.int64)])
        return (np.arange(q)[None, :, None] + hops[:, None, :]) % q  # (2, owner, hop)

    if pn > 1:
        a_hops = np.arange(pm)[:, None, None] * (pn * pk) + fiber_hops(pn)[:, None] * pk
    if pm > 1:
        b_hops = fiber_hops(pm)[:, None] * (pn * pk) + np.arange(pn)[:, None, None] * pk
    layer_ranks = np.arange(pm * pn) * pk

    # ------------------------------------------------------------------
    # round classes: the overlap-width table of the whole schedule
    # ------------------------------------------------------------------
    # Row r holds, for every k-layer, the width of round r's clamped chunk
    # and its overlap with each A / B ownership slice of the layer.  Rounds
    # with equal rows have the identical schedule, and they are consecutive
    # (every layer's chunk moves monotonically through its ownership slices,
    # so a row never comes back): a class is a run of rounds.
    step = decomposition.step_size
    offsets = np.arange(0, int((k_hi - k_lo).max()), step, dtype=np.int64)
    num_rounds = len(offsets)
    c0 = np.minimum(k_lo + offsets[:, None], k_hi)  # (round, layer)
    c1 = np.minimum(c0 + step, k_hi)
    w_a = np.maximum(np.minimum(a_hi, c1[:, :, None]) - np.maximum(a_lo, c0[:, :, None]), 0)
    w_b = np.maximum(np.minimum(b_hi, c1[:, :, None]) - np.maximum(b_lo, c0[:, :, None]), 0)
    table = np.concatenate(
        [c1 - c0, w_a.reshape(num_rounds, -1), w_b.reshape(num_rounds, -1)], axis=1
    )

    def fiber_transfers(hops, block, widths, kk):
        """Layer ``kk``'s hops along one fiber direction and their words: an
        owner with a nonempty overlap sends its ``block x width`` piece over
        each of its ``q - 1`` hops.  (In the steady state every owner is
        active, and masking the hop arrays would only copy them.)"""
        active = widths > 0
        if not active.all():
            hops, widths = hops[:, :, active], widths[active]
        words = np.repeat(np.multiply.outer(block, widths).ravel(), hops.shape[3])
        return (hops + kk).reshape(2, -1), words

    def post_class(delta: CommCounters, row: np.ndarray) -> None:
        chunk_w = row[:pk]
        class_w_a = row[pk : pk + pk * pn].reshape(pk, pn)
        class_w_b = row[pk + pk * pn :].reshape(pk, pm)
        layers = np.flatnonzero(chunk_w)
        pending: list[tuple[np.ndarray, np.ndarray]] = []

        def post_pending() -> None:
            (srcs, dsts), words = (np.concatenate(parts, axis=-1) for parts in zip(*pending))
            delta.post_transfers(srcs, dsts, words, kind="input", count_rounds=exchange != "get")
            if exchange == "get":
                delta.add_rounds(dsts)
            pending.clear()

        for kk in layers:
            if pn > 1:
                pending.append(fiber_transfers(a_hops, lm, class_w_a[kk], kk))
            if pm > 1:
                pending.append(fiber_transfers(b_hops, ln, class_w_b[kk], kk))
            # One post per class unless the class is large: the index arrays of
            # a post stay a few MB however many layers a round spans (2.5D's
            # single round spans them all: 8.3 M transfers at p = 65536).
            if sum(words.size for _, words in pending) >= _POST_BATCH:
                post_pending()
        if pending:
            post_pending()
        delta.add_flops(
            np.add.outer(layers, layer_ranks).ravel(),
            np.multiply.outer(2 * chunk_w[layers], mn_outer).ravel(),
        )

    return machine.round_classes(table, post_class)


def post_c_reduction(machine: DistributedMachine, decomposition: CosmaDecomposition) -> None:
    """Count the binomial reduction of the partial C blocks along every k fiber
    onto its ``kk = 0`` rank, and post the reduced blocks those ranks then hold."""
    grid = decomposition.grid
    mn_outer = _c_block_words(decomposition)
    if grid.pk > 1:
        r_src, r_dst = np.array(reduce_hops(grid.pk), dtype=np.int64).T
        bases = np.arange(grid.pm * grid.pn)[:, None] * grid.pk
        hop_words = np.repeat(mn_outer, len(r_src))
        dsts = (bases + r_dst[None, :]).ravel()
        machine.post_transfers(
            (bases + r_src[None, :]).ravel(), dsts, hop_words, kind="output",
        )
        machine.counters.add_flops(dsts, hop_words)
    machine.post_resident("C_final", slice(0, grid.p_used, grid.pk), mn_outer)


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
    classes = fiber_exchange_rounds(machine, decomposition, "get" if use_rma else "tree")

    # The reference path checks memory at the end of every round, but the
    # rank stores (A_own / B_own / C_acc) do not change between rounds -- the
    # per-round check always sees the same footprint.  One check up front
    # records the identical peak and enforces the identical budget.
    machine.check_memory()
    round_volumes: list[int] = []
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
        for rounds, delta in classes:
            volume = delta.max_words_per_rank()
            for chunk_index in rounds:
                machine.counters.mark_round_start()
                machine.post_round(delta)
                round_volumes.append(volume)
                machine.log_round(f"cosma-step-{chunk_index}")

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
