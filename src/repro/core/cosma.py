"""The COSMA distributed executor (Algorithm 1 on the machine simulator).

Execution outline for a fitted grid ``[pm x pn x pk]``:

1. every used rank starts with its owned slices of A and B (the blocked
   layout of :mod:`repro.core.decomposition`);
2. the local ``k`` extent is processed in ``t`` communication rounds of
   ``step_size`` outer products each (Algorithm 1, lines 8-11): in every round
   the pieces of the A panel for the round's k-chunk are broadcast along the
   ``j`` fiber and the pieces of the B panel along the ``i`` fiber, after
   which each rank multiplies the received panels into its ``lm x ln``
   accumulator;
3. the accumulators are reduced along the ``k`` fiber onto the C owners
   (Algorithm 1, line 12).

Every transferred word is counted by the machine's communication layer;
:func:`cosma_run` returns the assembled global product, the counters are the
machine's, and the round count is the decomposition's ``num_steps``.

One engine serves both modes, with ``use_rma`` or without (``volume`` is the
``plane`` engine minus the numerics).  Its accounting is three functions of a
:class:`CosmaDecomposition` -- :func:`post_owned_words`,
:func:`post_fiber_exchange` and :func:`post_c_reduction` -- and they are the
one accounting implementation of the grid family: SUMMA runs them on
``pm x pn x 1`` with its panel width as the step, Cannon on a padded
``q x q x 1`` with block-wide panels passed around a ring, 2.5D on
``q x q x c`` with one whole-layer gather round (:mod:`repro.baselines.summa`,
:mod:`repro.baselines.cannon`, :mod:`repro.baselines.grid25d`).  What is
posted when:

* **per run** -- the owned words; the panel exchange as ONE expansion to
  ranks (Algorithm 1 is a steady-state schedule and every counter is linear
  in a round's overlap widths, so the sum over all rounds is a closed form
  at ``(layer, owner)`` size: each layer's k-range overlapped with each
  ownership slice, and the number of chunks that overlap it, read off the
  boundary arrays without visiting a round); the C reduction, one more
  delta;
* **per round** -- nothing untraced.  Under a tracer, the engine's boundary
  call (COSMA's labelled ``log_round``, SUMMA's and Cannon's
  ``commit_round``, none for 2.5D), which does nothing untraced, so the
  engines pass it only then;
* **per round class** (a maximal run of rounds with equal widths) -- a
  ``fields x p`` delta, but only under a tracer: a round span reads the
  counter matrix at its boundary, so a traced run reads where its classes
  start off the boundary arrays (a layer's chunk reaching an ownership bound
  or the layer's end) and adds class by class, each expanded from the same
  closed-form sums over a one-round window, through the same expand
  function.  Tracing is the only reader of per-class deltas
  (:func:`fiber_exchange_rounds`, which is also the form the test suite's
  hop-expansion oracle checks).  No array has a rounds axis.

The product is the grid family's one numeric function too,
:func:`layer_product`: a GEMM into a single C sheet over the rows and columns
the blocks cover and the k-range the layers' A and B owners hold (layers
whose ranges abut merged into one GEMM, so COSMA's is one GEMM over all of
k).  A decomposition that leaves part of C or of k to no rank computes a
wrong product.  A sharded COSMA run splits the covered rows and columns over
the shard pool instead.

The same schedule executed hop by hop -- every panel piece broadcast through a
binomial tree, every partial C block reduced, every word moved from a rank's
block store to another's -- is the test-side reference, ``tests/oracle``: it
reads the same boundary arrays and none of the functions here, and the parity
suites hold this engine (and SUMMA's, Cannon's and 2.5D's) to it counter cell
by counter cell.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import nullcontext

import numpy as np

from repro.core.decomposition import CosmaDecomposition
from repro.machine.counters import (
    FLOPS,
    INPUT_WORDS,
    MESSAGES_RECEIVED,
    MESSAGES_SENT,
    OUTPUT_WORDS,
    ROUNDS,
    WORDS_RECEIVED,
    WORDS_SENT,
    CommCounters,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken
from repro.machine.tree import tree_fanout
from repro.utils.intmath import abutting_runs, sorted_distinct, split_offsets


def _sharded_gemm(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
) -> np.ndarray:
    """``A @ B`` at the plane dtype on the shard pool: ``machine.shards``
    worker processes.

    The pool casts the caller's A and B while it fills their shared-memory
    segments (the previous run's, when the sizes match): one pass each, and
    no private operand copy in the parent.  The rows and columns of C that
    the decomposition's blocks cover are split into contiguous row stripes,
    one per worker, and for each k-range the layers' owners hold
    (:func:`layer_product`'s, so one on a correct decomposition) a worker
    computes its stripe, ``out[r0:r1, c0:c1] (+)= a[r0:r1, k0:k1] @ b[k0:k1,
    c0:c1]``, straight into the shared output segment (a row no block
    covers, or a k-slice no owner holds, is never multiplied); the one copy
    of that segment returned here becomes the run's C sheet.  Only (job id,
    slice spec) messages cross the pipes.  All counters were already posted in the parent -- nothing
    here touches accounting.

    The output segment is zero-filled even when it is reused.  A reused
    segment may still hold the previous run's product, identical when the
    inputs repeat, so a row stripe that no spec covers would pass
    verification; zeros make it fail.
    """
    from repro.machine.shard import get_pool

    rows, cols = _c_extent(decomposition)
    dtype = machine.transport.dtype
    pool = get_pool(machine.shards)
    trace = machine.trace
    try:
        pool.share("cosma.A", a_matrix, dtype=dtype)
        pool.share("cosma.B", b_matrix, dtype=dtype)
        out = pool.share_zeros("cosma.OUT", (decomposition.m, decomposition.n), dtype)
        stripes = [(rows.start + r0, rows.start + r1)
                   for r0, r1 in split_offsets(rows.stop - rows.start, machine.shards)]
        for index, k_run in enumerate(_held_k_runs(decomposition)):
            # One job per stripe and held k-run; the first run writes the
            # zeroed segment, later ones add to it.
            specs = [
                {"a": "cosma.A", "b": "cosma.B", "out": "cosma.OUT", "rows": [r0, r1],
                 "cols": [cols.start, cols.stop], "k": list(k_run), "add": index > 0}
                for r0, r1 in stripes
            ]
            start_ns = trace.tracer.now_ns() if trace is not None else 0
            infos = pool.run("gemm_rows", specs)
            if trace is not None:
                for shard, (info, stripe) in enumerate(zip(infos, stripes)):
                    trace.tracer.complete(
                        "cosma-shard-gemm", cat="gemm", start_ns=start_ns,
                        dur_ns=int(info.get("seconds", 0.0) * 1e9),
                        args={"shard": shard, "rows": list(stripe)},
                        track="gemm",
                    )
        # Copy the product out of shared memory before release: the next run
        # reuses the segment, so the C sheet (and everything downstream) must
        # never reference a pool-owned buffer.
        product = out.copy()
        out = None
        return product
    finally:
        pool.release()


def _held_k_runs(decomposition: CosmaDecomposition) -> list[tuple[int, int]]:
    """The k-ranges the product multiplies: per layer, the part of its
    k-range that both its A owners and its B owners hold, abutting layers
    merged into one range (one range, all of k, on a correct decomposition)."""
    d = decomposition
    lo = np.maximum.reduce((d.k_bounds[:-1], d.a_bounds[:, 0], d.b_bounds[:, 0]))
    hi = np.minimum.reduce((d.k_bounds[1:], d.a_bounds[:, -1], d.b_bounds[:, -1]))
    held = lo < hi
    _, lo, hi = abutting_runs(lo[held], hi[held])
    return list(zip(lo.tolist(), hi.tolist()))


def _c_extent(decomposition: CosmaDecomposition) -> tuple[slice, slice]:
    """The rows and columns of C that the decomposition's blocks cover."""
    i_bounds, j_bounds = decomposition.i_bounds, decomposition.j_bounds
    return slice(int(i_bounds[0]), int(i_bounds[-1])), slice(int(j_bounds[0]), int(j_bounds[-1]))


def post_owned_words(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    a_name: str,
    b_name: str,
    c_name: str,
) -> None:
    """Post every used rank's owned A / B slices and its C block as resident.

    Posted, not stored: the decomposition's ``owned_words`` (computed once
    per decomposition) go to the machine's resident-words vector, one vector
    per block name.
    """
    used = slice(0, decomposition.p_used)
    for name, words in zip((a_name, b_name, c_name), decomposition.owned_words):
        machine.post_resident(name, used, words)


class _FiberExpansion:
    """How a decomposition's panel exchange turns overlap widths into
    per-rank counters.

    In round ``r`` every k-layer moves its ``r``-th chunk of ``step_size``
    outer products: the owners of the chunk's A panel send their pieces along
    their ``j`` fiber, the owners of its B panel along their ``i`` fiber
    (owners whose slice misses the chunk send nothing), and every rank of the
    layer multiplies the panels into its C block.  ``exchange`` is how a
    piece reaches the other ``q - 1`` ranks of the fiber: ``"tree"``, a
    binomial broadcast; ``"get"``, one-sided gets (a star, the round charged
    to the origin only); ``"gather"``, direct sends (the same star, rounds on
    both ends); ``"ring"``, forwarded from neighbour to neighbour (each hop a
    sendrecv, its round charged to the receiver).

    No hop is expanded.  In a fiber of ``q`` positions rooted at owner ``o``,
    position ``(pos - o) % q`` sends that position's fan-out of messages and
    receives one unless it is the root; summed over owners, a position sends
    the circulant product ``widths @ fan`` and receives every width but its
    own, in units of its rank's block side (``lm`` for A pieces, ``ln`` for
    B).  Every counter is therefore *linear* in a round's overlap widths (and
    in which of them are positive): any set of rounds is added by summing, at
    ``(layer, owner)`` size, its chunk widths, its overlap widths and the
    number of its chunks each slice overlaps, and expanding to ranks once
    (:meth:`expand`).
    """

    def __init__(self, decomposition: CosmaDecomposition, exchange: str) -> None:
        pm, pn, _ = self.grid = decomposition.grid
        self.exchange = exchange
        self.lm, self.ln, _ = decomposition.extents

        def circulant(q: int) -> np.ndarray:
            """``fan[o, pos]``: messages position ``pos`` sends of owner ``o``'s piece
            (the star sends all ``q - 1`` from the owner itself, the ring one
            from every position but the last)."""
            if exchange == "tree":
                fanout = np.array(tree_fanout(q))
            elif exchange == "ring":
                fanout = np.array([1] * (q - 1) + [0])
            else:
                fanout = np.array([q - 1] + [0] * (q - 1))
            return fanout[(np.arange(q) - np.arange(q)[:, None]) % q]

        self.fan_a, self.fan_b = circulant(pn), circulant(pm)

    def _by_rank(self, w_a, w_b, lm, ln) -> tuple[np.ndarray, np.ndarray]:
        """(sent, received) on the ``(pm, pn, pk)`` grid given ``(layer, owner)``
        widths: ``lm`` per unit of A width along the ``j`` fiber, ``ln`` per unit
        of B width along the ``i`` fiber."""
        def exchanged(widths, fan):  # as (position, layer) tables
            return (widths @ fan).T, (widths.sum(axis=1, keepdims=True) - widths).T

        sent_a, received_a = exchanged(w_a, self.fan_a)
        sent_b, received_b = exchanged(w_b, self.fan_b)
        return lm * sent_a + sent_b[:, None] * ln, lm * received_a + received_b[:, None] * ln

    def expand(self, data: np.ndarray, held_w, w_a, w_b, n_a, n_b) -> None:
        """Add a set of rounds to the ``(field, rank)`` counter array ``data``,
        given its sums: ``held_w`` (layer) the width of its chunks that both
        the A and the B owners hold (what a rank multiplies), ``w_a`` / ``w_b``
        (layer, owner) its overlap widths with each A / B ownership slice,
        ``n_a`` / ``n_b`` (layer, owner) how many of its chunks overlap the
        slice.  The one place a width becomes a per-rank count."""
        pm, pn, pk = self.grid
        # Ranks are row-major in (pi, pj, kk); a layer that ran out of k has
        # zero widths throughout and its ranks stay as they are.
        fields = data[:, : pm * pn * pk].reshape(-1, pm, pn, pk)
        lm, ln = self.lm[:, None, None], self.ln[:, None]
        sent, received = self._by_rank(w_a, w_b, lm, ln)
        fields[WORDS_SENT] += sent
        fields[WORDS_RECEIVED] += received
        fields[INPUT_WORDS] += sent + received
        sent, received = self._by_rank(n_a, n_b, 1, 1)
        fields[MESSAGES_SENT] += sent
        fields[MESSAGES_RECEIVED] += received
        # A get or a ring hop is charged to its receiver only; a send or a tree
        # hop to both ends.
        fields[ROUNDS] += received if self.exchange in ("get", "ring") else received + sent
        fields[FLOPS] += 2 * held_w * lm * ln


def _class_starts(decomposition: CosmaDecomposition) -> np.ndarray:
    """The first round of every round class, ascending: a *round class* is a
    maximal run of rounds with the identical schedule (equal chunk and
    overlap widths).  A layer's chunk moves monotonically through its
    ownership slices, so a round's widths differ from the previous round's
    only where a chunk reaches a bound ``x`` of an A or B slice or the
    layer's end: at the chunk holding ``x``, ``floor((x - k_lo) / step)``,
    and the chunk after it, ``ceil``.  Those candidates, with round 0, are
    every class start, and no candidate splits a class."""
    d = decomposition
    k_lo, step = d.k_bounds[:-1, None], d.step_size
    bounds = np.concatenate([d.a_bounds, d.b_bounds, d.k_bounds[1:, None]], axis=1) - k_lo
    starts = np.concatenate([[0], (bounds // step).ravel(), (-(-bounds // step)).ravel()])
    return sorted_distinct(starts[(starts >= 0) & (starts < d.num_steps)])


def fiber_exchange_rounds(
    machine: DistributedMachine, decomposition: CosmaDecomposition, exchange: str
) -> Iterator[tuple[range, CommCounters]]:
    """The round classes of the decomposition's panel exchange
    (:func:`_class_starts`), each written once into a scratch counter set
    reused from class to class: ``(rounds, delta)`` with ``delta`` one round
    of the class, expanded from its first round's sums.  Nothing is added to
    the machine.  Only a traced run posts class by class; this is also the
    form the hop-expansion oracle checks."""
    expansion = _FiberExpansion(decomposition, exchange)
    delta = CommCounters.for_ranks(machine.p)
    starts = _class_starts(decomposition).tolist()
    for first, stop in zip(starts, [*starts[1:], decomposition.num_steps]):
        delta.reset()
        expansion.expand(delta.data, *decomposition.exchange_sums(first, first + 1))
        yield range(first, stop), delta


def post_fiber_exchange(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    exchange: str,
    boundary: Callable[[int], None] | None = None,
) -> None:
    """Add the decomposition's whole panel exchange to the machine's counters,
    calling the engine's round boundary ``boundary(r)`` once per round.

    Untraced, a run is ONE expansion to ranks of the whole exchange's sums,
    read off the boundary arrays once per decomposition
    (:attr:`~repro.core.decomposition.CosmaDecomposition.exchange_totals`,
    usually already computed by the plan): no round is visited, so the sums
    are O(pk (pm + pn)), then the fiber products and a constant number of
    O(p) array operations follow, whatever the round count.  A round span reads the matrix at
    its boundary, so under a tracer the same expansion runs once per round
    class (:func:`fiber_exchange_rounds`), :meth:`post_rounds
    <repro.machine.simulator.DistributedMachine.post_rounds>` alternating adds
    and boundaries.  An engine whose boundary does nothing untraced passes
    none.
    """
    if machine.trace is not None:
        for rounds, delta in fiber_exchange_rounds(machine, decomposition, exchange):
            machine.post_rounds(delta, rounds, boundary)
        return
    _FiberExpansion(decomposition, exchange).expand(
        machine.counters.data, *decomposition.exchange_totals)
    if boundary is not None:
        for r in range(decomposition.num_steps):
            boundary(r)


def post_c_reduction(machine: DistributedMachine, decomposition: CosmaDecomposition) -> None:
    """Count the binomial reduction of the partial C blocks along every k fiber
    onto its ``kk = 0`` rank, and post the reduced blocks those ranks then hold.

    One more delta, added once.  The broadcast tree mirrored: every position
    but the root sends its block once, position ``kk`` receives (and combines,
    a flop per word) ``fanout[kk]``.
    """
    pm, pn, pk = decomposition.grid
    mn_outer = decomposition.c_block_words
    if pk > 1:
        received = np.array(tree_fanout(pk))
        sent = np.arange(pk) > 0
        delta = CommCounters.for_ranks(machine.p)
        rows = delta.data[:, : pm * pn * pk].reshape(-1, pm * pn, pk)
        rows[WORDS_SENT] = mn_outer[:, None] * sent
        rows[WORDS_RECEIVED] = rows[FLOPS] = mn_outer[:, None] * received
        rows[MESSAGES_SENT] = sent
        rows[MESSAGES_RECEIVED] = received
        rows[ROUNDS] = sent + received
        rows[OUTPUT_WORDS] = rows[WORDS_SENT] + rows[WORDS_RECEIVED]
        machine.post_rounds(delta, range(1))
    machine.post_resident("C_final", slice(0, pm * pn * pk, pk), mn_outer)


def received_words(decomposition: CosmaDecomposition) -> np.ndarray:
    """Words every used rank receives in the panel exchange and the C
    reduction, int64 in rank order: the count a run posts, in closed form.

    Summed over the rounds, a fiber delivers every owner's whole slice of the
    layer to each rank but the owner itself, whatever the ``exchange`` kind
    (see :class:`_FiberExpansion`): rank ``(pi, pj, kk)`` receives
    ``lm (lk - a_own) + ln (lk - b_own)`` input words, plus
    ``lm ln tree_fanout(pk)[kk]`` words of the C reduction (none at
    ``pk = 1``).
    """
    lm, ln, lk = decomposition.extents
    a_width, b_width = decomposition.owned_widths
    a_own = a_width.T[None, :, :]  # (1, pn, pk)
    b_own = b_width.T[:, None, :]  # (pm, 1, pk)
    lm, ln = lm[:, None, None], ln[None, :, None]
    fan_in = np.array(tree_fanout(decomposition.grid.pk), dtype=np.int64)
    return (lm * (lk - a_own) + ln * (lk - b_own) + lm * ln * fan_in).ravel()


def _fan_levels(exchange: str, q: int) -> list[tuple[int, int]]:
    """A piece's way to the other ``q - 1`` positions of a fiber, counted from
    its owner, as ``(senders, messages)`` per level: positions ``0 ..
    senders - 1`` each send ``messages``.  A tree's level ``r``: ``i < 2^r``
    sends to ``i + 2^r`` inside the fiber; a ring: each position but the last
    to the next; a star (``get`` / ``gather``): the owner to all."""
    if exchange == "tree":
        spans = (1 << level for level in range((q - 1).bit_length()))
        return [(min(span, q - span), 1) for span in spans]
    if exchange == "ring":
        return [(q - 1, 1)]
    return [(1, q - 1)]


def counted_rounds(decomposition: CosmaDecomposition, exchange: str) -> np.ndarray:
    """Rounds every used rank counts in the panel exchange (``exchange``
    kind) and the C reduction, int64 in rank order: the ``ROUNDS`` a run
    posts, from each (layer, owner) slice's chunk count (the decomposition's
    :attr:`~repro.core.decomposition.CosmaDecomposition.exchange_totals`)
    and each exchange's own level rule (:func:`_fan_levels`).

    Per chunk, every position but the owner receives once, and a position
    sends at each level whose senders, counted from the owner, include it:
    over owners, a circular window sum of the chunk counts.  A get or a ring
    hop is a round of its receiver only.  The C reduction mirrors the tree
    along the k fiber: a position receives once per level it would send at,
    and every position but ``kk = 0`` sends once.
    """
    pk = decomposition.grid.pk
    _, _, _, n_a, n_b = decomposition.exchange_totals
    receiver_only = exchange in ("get", "ring")

    def fiber_rounds(chunks: np.ndarray) -> np.ndarray:  # (layer, owner) -> (position, layer)
        rounds = chunks.sum(axis=1, keepdims=True) - chunks  # received
        if not receiver_only:
            q = chunks.shape[1]
            # circular[:, q + pos] - circular[:, q + pos - s] sums the chunks of
            # owners pos - s + 1 .. pos (mod q): those whose first s positions
            # include pos.
            circular = np.cumsum(np.tile(chunks, 2), axis=1)
            for senders, messages in _fan_levels(exchange, q):
                rounds += messages * (circular[:, q:] - circular[:, q - senders : 2 * q - senders])
        return rounds.T

    position = np.arange(pk)
    reduction = (position > 0) + sum(position < senders for senders, _ in _fan_levels("tree", pk))
    return (fiber_rounds(n_b)[:, None, :] + fiber_rounds(n_a)[None, :, :] + reduction).ravel()


def layer_product(
    machine: DistributedMachine,
    name: str,
    decomposition: CosmaDecomposition,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
) -> np.ndarray:
    """The product of a grid decomposition's schedule, into a single C sheet
    registered as the ``(1, m, n)`` plane ``name.C``: one GEMM per k-layer,
    and one for a run of layers whose k-ranges abut.

    Every rank of a layer multiplies the panels its fibers assemble from the
    owners' slices, so a layer computes rows ``i_bounds[0]:i_bounds[-1]`` x
    columns ``j_bounds[0]:j_bounds[-1]`` of C over the part of its k-range
    that both its A owners (``a_bounds[layer]``) and its B owners
    (``b_bounds[layer]``) hold.  The operands are views of those slices; the
    per-rank block products and the k-fiber reduction collapse into the GEMMs
    (same sums, associated by BLAS).  What no owner holds is never
    multiplied, so a decomposition that drops a slice or a row computes a
    wrong product and fails verification.
    """
    d = decomposition
    rows, cols = _c_extent(d)
    c_global = machine.new_plane(f"{name}.C", (1, d.m, d.n)).data[0]
    c_block = c_global[rows, cols]
    for index, (k0, k1) in enumerate(_held_k_runs(d)):
        # The first GEMM writes the zeroed sheet in place; the rest add.
        product = np.matmul(a_matrix[rows, k0:k1], b_matrix[k0:k1, cols],
                            out=None if index else c_block)
        if index:
            c_block += product
    return c_global


def cosma_run(
    machine: DistributedMachine,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
    decomposition: CosmaDecomposition,
    use_rma: bool = False,
) -> np.ndarray:
    """Run COSMA's schedule on ``decomposition``: vectorized accounting and
    one-GEMM numerics; returns the global product (a token in ``volume``
    mode).

    Counts the exact communication schedule -- the rounds, the binomial
    broadcast/reduction trees (or, with ``use_rma``, one-sided gets, section
    7.4: the same volume, different round accounting), the payload sizes --
    that the per-hop reference executes hop by hop.  The accounting is the
    three functions above; what is COSMA's own is the round boundary (a
    labelled round) and the numerics.  The machine's counters are added to,
    not reset; the operands are used as given (the registered runner casts
    them to the plane dtype, except on the shard pool, which casts while it
    fills its segments).

    In ``volume`` mode the accounting is the whole story (payloads are
    tokens).  In ``plane`` mode the round-chunked multiply-accumulates and
    the k-fiber reduction of the schedule collapse into one GEMM over the
    covered rows and columns and the owned k extent (same sums, associated
    by BLAS instead of per chunk and per layer): :func:`layer_product`'s
    single C sheet, or, when ``machine.shards > 1``, the copy of the shard
    pool's output.
    """
    m, n, k = decomposition.m, decomposition.n, decomposition.k
    numeric = not machine.transport.counters_only
    sharded = numeric and machine.shards > 1
    post_owned_words(machine, decomposition, "A_own", "B_own", "C_acc")
    # The schedule checks memory at the end of every round, but the resident
    # blocks (A_own / B_own / C_acc) do not change between rounds -- every
    # per-round check sees the same footprint.  One check up front records
    # the identical peak and enforces the identical budget.
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
        # The labelled boundary does nothing untraced: pass it only to a tracer.
        post_fiber_exchange(
            machine, decomposition, "get" if use_rma else "tree",
            None if trace is None else lambda r: machine.log_round(f"cosma-step-{r}"),
        )

    # ------------------------------------------------------------------
    # numerics: one GEMM over the owned k extent into the single C sheet
    # ------------------------------------------------------------------
    c_global = ShapeToken((m, n))
    if numeric:
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
            if sharded:
                c_global = _sharded_gemm(machine, decomposition, a_matrix, b_matrix)
            else:
                c_global = layer_product(machine, "cosma", decomposition, a_matrix, b_matrix)

    # The C reduction is counted only: the GEMM already summed over k.
    post_c_reduction(machine, decomposition)
    machine.check_memory()
    return c_global


__all__ = ["cosma_run", "counted_rounds", "received_words"]
