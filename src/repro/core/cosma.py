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
  delta.  Each is one posting call of the machine, traced or not, and
  nothing is posted per round;
* **per round class** (a maximal run of rounds with equal widths) -- one
  round span, only under a tracer: the exchange's posting call reads where
  its classes start off the boundary arrays (a layer's chunk reaching an
  ownership bound or the layer's end) and spans each class with its
  multiplicity, from a ``fields x p`` delta of one of its rounds, expanded
  from the same closed-form sums over a one-round window through the same
  expand function (:func:`fiber_exchange_rounds`, which is also the form
  the test suite's hop-expansion oracle checks).  These deltas are read,
  never added.  No array has a rounds axis.

The product is the grid family's one numeric function too,
:func:`layer_product`: a :class:`~repro.machine.transport.GemmProduct` of one
GEMM box over the rows and columns the blocks cover and the k-range the
layers' A and B owners hold (layers whose ranges abut merged into one box,
so COSMA's is one box over all of k), computed only when its rows are asked
for.  A decomposition that leaves part of C or of k to no rank computes a
wrong product.  A sharded COSMA run computes the same boxes on the shard
pool instead, split into row stripes, and returns the dense result.

The same schedule executed hop by hop -- every panel piece broadcast through a
binomial tree, every partial C block reduced, every word moved from a rank's
block store to another's -- is the test-side reference, ``tests/oracle``: it
reads the same boundary arrays and none of the functions here, and the parity
suites hold this engine (and SUMMA's, Cannon's and 2.5D's) to it counter cell
by counter cell.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import nullcontext
from functools import lru_cache

import numpy as np

from repro.core.decomposition import CosmaDecomposition
from repro.machine.counters import (
    COUNTER_FIELDS,
    FLOPS,
    INPUT_WORDS,
    MESSAGES_RECEIVED,
    MESSAGES_SENT,
    OUTPUT_WORDS,
    ROUNDS,
    WORDS_RECEIVED,
    WORDS_SENT,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, ShapeToken
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
    no private operand copy in the parent.  Each of :func:`layer_product`'s
    boxes (one on a correct decomposition) is split into contiguous row
    stripes, one per worker, and a worker computes its stripe,
    ``out[r0:r1, c0:c1] (+)= a[r0:r1, k0:k1] @ b[k0:k1, c0:c1]``, straight
    into the shared output segment (a row no block covers, or a k-slice no
    owner holds, is never multiplied); the one copy of that segment returned
    here is the run's product.  Only (job id, slice spec) messages cross the
    pipes.  All counters were already posted in the parent -- nothing here
    touches accounting.

    The output segment is zero-filled even when it is reused.  A reused
    segment may still hold the previous run's product, identical when the
    inputs repeat, so a row stripe that no spec covers would pass
    verification; zeros make it fail.
    """
    from repro.machine.shard import get_pool

    d = decomposition
    dtype = machine.transport.dtype
    pool = get_pool(machine.shards)
    trace = machine.trace
    try:
        pool.share("cosma.A", a_matrix, dtype=dtype)
        pool.share("cosma.B", b_matrix, dtype=dtype)
        out = pool.share_zeros("cosma.OUT", (d.m, d.n), dtype)
        for index, (i0, i1, j0, j1, k0, k1) in enumerate(_layer_boxes(d, d.m, d.n, d.k).tolist()):
            # One job per stripe and box; the first box writes the zeroed
            # segment, later ones add to it.
            stripes = [(i0 + r0, i0 + r1) for r0, r1 in split_offsets(i1 - i0, machine.shards)]
            specs = [
                {"a": "cosma.A", "b": "cosma.B", "out": "cosma.OUT", "rows": [r0, r1],
                 "cols": [j0, j1], "k": [k0, k1], "add": index > 0}
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
        # reuses the segment, so the product (and everything downstream) must
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


def _layer_boxes(decomposition: CosmaDecomposition, m: int, n: int, k: int) -> np.ndarray:
    """The GEMM boxes of the decomposition's product, rows ``i0, i1, j0, j1,
    k0, k1``: one per held k-run (:func:`_held_k_runs`) over the rows and
    columns the blocks cover, cut at ``(m, n, k)``: Cannon's padded blocks
    reach past the operands' edges, every other decomposition's end there."""
    d = decomposition
    edges = (d.i_bounds[0], d.i_bounds[-1], d.j_bounds[0], d.j_bounds[-1])
    boxes = np.array([(*edges, k0, k1) for k0, k1 in _held_k_runs(d)], dtype=np.int64)
    return np.minimum(boxes.reshape(-1, 6), np.repeat((m, n, k), 2))


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


@lru_cache(maxsize=256)
def _fan_levels(exchange: str, q: int) -> tuple[np.ndarray, np.ndarray]:
    """A piece's way to the other ``q - 1`` positions of a fiber, counted from
    its owner, as read-only ``(senders, messages)`` arrays, one entry per
    level: positions ``0 .. senders - 1`` each send ``messages``.  A tree's
    level ``r``: ``i < 2^r`` sends to ``i + 2^r`` inside the fiber; a ring:
    each position but the last to the next; a star (``get`` / ``gather``):
    the owner to all."""
    if exchange == "tree":
        spans = 1 << np.arange((q - 1).bit_length())
        levels = np.minimum(spans, q - spans), np.ones_like(spans)
    elif exchange == "ring":
        levels = np.array([q - 1]), np.array([1])
    else:
        levels = np.array([1]), np.array([q - 1])
    for array in levels:
        array.flags.writeable = False
    return levels


def _fiber_sends(values: np.ndarray, exchange: str) -> np.ndarray:
    """What every position of a fiber sends, summed over the owners, given
    ``values`` per ``(layer, owner)`` (a piece's width, or a chunk count):
    ``(layer, position)``.  The one fan-out rule of the engine and the plan.

    At each level of :func:`_fan_levels`, position ``pos`` sends ``messages``
    times the value of every owner whose first ``senders`` positions include
    it, the owners ``pos - senders + 1 .. pos`` (mod ``q``): a circular
    window sum of ``values``, read for all levels with one gather."""
    q = values.shape[1]
    senders, messages = _fan_levels(exchange, q)
    # circular[:, q + pos] - circular[:, q + pos - s] sums the values of
    # owners pos - s + 1 .. pos (mod q).
    circular = np.cumsum(np.concatenate((values, values), axis=1), axis=1)
    starts = circular[:, (q - senders)[:, None] + np.arange(q)]  # (layer, level, position)
    return messages.sum() * circular[:, q:] - messages @ starts


def _tree_fan_in(q: int) -> np.ndarray:
    """Blocks each position of a ``q``-position k fiber receives (and
    combines) in the C reduction onto position 0: the broadcast tree
    mirrored, so the messages the position would send of position 0's piece
    (:func:`_fan_levels`)."""
    senders, messages = _fan_levels("tree", q)
    return messages @ (np.arange(q) < senders[:, None])


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
    :func:`_fiber_sends` of the widths and receives every width but its
    own, in units of its rank's block side (``lm`` for A pieces, ``ln`` for
    B).  Every counter is therefore *linear* in a round's overlap widths (and
    in which of them are positive): any set of rounds is added by summing, at
    ``(layer, owner)`` size, its chunk widths, its overlap widths and the
    number of its chunks each slice overlaps, and expanding to ranks once
    (:meth:`expand`).
    """

    def __init__(self, decomposition: CosmaDecomposition, exchange: str) -> None:
        self.grid = decomposition.grid
        self.exchange = exchange
        self.lm, self.ln, _ = decomposition.extents

    def _exchanged(self, widths: np.ndarray, chunks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sent, received) along one fiber direction as ``(what, position,
        layer)`` tables, ``what`` 0 for the ``(layer, owner)`` overlap
        ``widths`` and 1 for the ``chunks`` that overlap each slice: one
        fan-out sum for both."""
        values = np.concatenate((widths, chunks))
        by_what = (2, len(widths), values.shape[1])
        sent = _fiber_sends(values, self.exchange).reshape(by_what)
        received = (values.sum(axis=1, keepdims=True) - values).reshape(by_what)
        return sent.transpose(0, 2, 1), received.transpose(0, 2, 1)

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
        # A pieces travel the j fiber (positions pj), B pieces the i fiber (pi).
        sent_a, received_a = self._exchanged(w_a, n_a)
        sent_b, received_b = self._exchanged(w_b, n_b)
        sent = lm * sent_a[0] + sent_b[0][:, None] * ln
        received = lm * received_a[0] + received_b[0][:, None] * ln
        fields[WORDS_SENT] += sent
        fields[WORDS_RECEIVED] += received
        fields[INPUT_WORDS] += sent + received
        sent = sent_a[1] + sent_b[1][:, None]
        received = received_a[1] + received_b[1][:, None]
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
) -> Iterator[tuple[range, np.ndarray]]:
    """The round classes of the decomposition's panel exchange
    (:func:`_class_starts`), each written once into a scratch ``(field,
    rank)`` array of the machine's ranks, reused from class to class:
    ``(rounds, delta)`` with ``delta`` one round of the class, expanded from
    its first round's sums.  Nothing is added to the machine: a traced run
    reads its round spans off them, and they are also the form the test
    suite's hop-expansion oracle checks."""
    expansion = _FiberExpansion(decomposition, exchange)
    delta = np.zeros((len(COUNTER_FIELDS), machine.p), dtype=np.int64)
    starts = _class_starts(decomposition).tolist()
    for first, stop in zip(starts, [*starts[1:], decomposition.num_steps]):
        delta[...] = 0
        expansion.expand(delta, *decomposition.exchange_sums(first, first + 1))
        yield range(first, stop), delta


def post_fiber_exchange(
    machine: DistributedMachine, decomposition: CosmaDecomposition, exchange: str
) -> None:
    """Add the decomposition's whole panel exchange to the machine's counters.

    A run is ONE expansion to ranks of the whole exchange's sums, read off
    the boundary arrays once per decomposition
    (:attr:`~repro.core.decomposition.CosmaDecomposition.exchange_totals`,
    usually already computed by the plan): no round is visited, so the sums
    are O(pk (pm + pn)), then the fiber sums and a constant number of O(p)
    array operations follow, whatever the round count.  It is posted in one
    :meth:`~repro.machine.simulator.DistributedMachine.post_delta`, traced or
    not; a tracer also reads one round span per round class off
    :func:`fiber_exchange_rounds`, whose deltas are not added.
    """
    pm, pn, pk = decomposition.grid
    delta = np.zeros((len(COUNTER_FIELDS), pm * pn * pk), dtype=np.int64)
    _FiberExpansion(decomposition, exchange).expand(delta, *decomposition.exchange_totals)
    # A generator: nothing is expanded per class unless a tracer iterates it.
    machine.post_delta(f"exchange-{exchange}", delta,
                       classes=fiber_exchange_rounds(machine, decomposition, exchange))


def post_c_reduction(machine: DistributedMachine, decomposition: CosmaDecomposition) -> None:
    """Count the binomial reduction of the partial C blocks along every k fiber
    onto its ``kk = 0`` rank, and post the reduced blocks those ranks then hold.

    One more delta, added once.  The broadcast tree mirrored: every position
    but the root sends its block once, position ``kk`` receives (and combines,
    a flop per word) :func:`_tree_fan_in` blocks.
    """
    pm, pn, pk = decomposition.grid
    mn_outer = decomposition.c_block_words
    if pk > 1:
        received = _tree_fan_in(pk)
        sent = np.arange(pk) > 0
        delta = np.zeros((len(COUNTER_FIELDS), pm * pn * pk), dtype=np.int64)
        rows = delta.reshape(-1, pm * pn, pk)
        rows[WORDS_SENT] = mn_outer[:, None] * sent
        rows[WORDS_RECEIVED] = rows[FLOPS] = mn_outer[:, None] * received
        rows[MESSAGES_SENT] = sent
        rows[MESSAGES_RECEIVED] = received
        rows[ROUNDS] = sent + received
        rows[OUTPUT_WORDS] = rows[WORDS_SENT] + rows[WORDS_RECEIVED]
        machine.post_delta("c-reduction", delta)
    machine.post_resident("C_final", slice(0, pm * pn * pk, pk), mn_outer)


def received_words(decomposition: CosmaDecomposition) -> np.ndarray:
    """Words every used rank receives in the panel exchange and the C
    reduction, int64 in rank order: the count a run posts, in closed form.

    Summed over the rounds, a fiber delivers every owner's whole slice of the
    layer to each rank but the owner itself, whatever the ``exchange`` kind
    (see :class:`_FiberExpansion`): rank ``(pi, pj, kk)`` receives
    ``lm (lk - a_own) + ln (lk - b_own)`` input words, plus
    ``lm ln _tree_fan_in(pk)[kk]`` words of the C reduction (none at
    ``pk = 1``).
    """
    lm, ln, lk = decomposition.extents
    a_width, b_width = decomposition.owned_widths
    a_own = a_width.T[None, :, :]  # (1, pn, pk)
    b_own = b_width.T[:, None, :]  # (pm, 1, pk)
    lm, ln = lm[:, None, None], ln[None, :, None]
    fan_in = _tree_fan_in(decomposition.grid.pk)
    return (lm * (lk - a_own) + ln * (lk - b_own) + lm * ln * fan_in).ravel()


def counted_rounds(decomposition: CosmaDecomposition, exchange: str) -> np.ndarray:
    """Rounds every used rank counts in the panel exchange (``exchange``
    kind) and the C reduction, int64 in rank order: the ``ROUNDS`` a run
    posts, from each (layer, owner) slice's chunk count (the decomposition's
    :attr:`~repro.core.decomposition.CosmaDecomposition.exchange_totals`)
    and the engine's fan-out rule (:func:`_fiber_sends`).

    Per chunk, every position but the owner receives once, and a position
    sends at each level whose senders, counted from the owner, include it.
    A get or a ring hop is a round of its receiver only.  The C reduction
    mirrors the tree along the k fiber: a position receives
    :func:`_tree_fan_in` blocks, and every position but ``kk = 0`` sends once.
    """
    pk = decomposition.grid.pk
    _, _, _, n_a, n_b = decomposition.exchange_totals
    receiver_only = exchange in ("get", "ring")

    def fiber_rounds(chunks: np.ndarray) -> np.ndarray:  # (layer, owner) -> (position, layer)
        rounds = chunks.sum(axis=1, keepdims=True) - chunks  # received
        if not receiver_only:
            rounds = rounds + _fiber_sends(chunks, exchange)
        return rounds.T

    reduction = (np.arange(pk) > 0) + _tree_fan_in(pk)
    return (fiber_rounds(n_b)[:, None, :] + fiber_rounds(n_a)[None, :, :] + reduction).ravel()


def layer_product(
    machine: DistributedMachine,
    decomposition: CosmaDecomposition,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray,
) -> GemmProduct | ShapeToken:
    """The product of a grid decomposition's schedule, a
    :class:`~repro.machine.transport.GemmProduct` of the operands'
    ``m x n``: one GEMM box per k-layer, and one for a run of layers whose
    k-ranges abut (:func:`_layer_boxes`); a token in ``volume`` mode, where
    no box is built.

    Every rank of a layer multiplies the panels its fibers assemble from the
    owners' slices, so a layer computes rows ``i_bounds[0]:i_bounds[-1]`` x
    columns ``j_bounds[0]:j_bounds[-1]`` of C over the part of its k-range
    that both its A owners (``a_bounds[layer]``) and its B owners
    (``b_bounds[layer]``) hold.  The boxes read views of those slices; the
    per-rank block products and the k-fiber reduction collapse into their
    GEMMs (same sums, associated by BLAS).  What no owner holds is never
    multiplied, so a decomposition that drops a slice or a row computes a
    wrong product and fails verification.
    """
    (m, k), n = a_matrix.shape, b_matrix.shape[1]
    if machine.transport.counters_only:
        return ShapeToken((m, n))
    return GemmProduct(a_matrix, b_matrix, _layer_boxes(decomposition, m, n, k), (m, n),
                       machine.transport.dtype)


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
    three functions above; what is COSMA's own is the grid, the exchange
    kind and the numerics.  The machine's counters are added to,
    not reset; the operands are used as given (the registered runner casts
    them to the plane dtype, except on the shard pool, which casts while it
    fills its segments).

    In ``volume`` mode the accounting is the whole story (payloads are
    tokens).  In ``plane`` mode the round-chunked multiply-accumulates and
    the k-fiber reduction of the schedule collapse into one GEMM box over
    the covered rows and columns and the owned k extent (same sums,
    associated by BLAS instead of per chunk and per layer):
    :func:`layer_product`'s :class:`~repro.machine.transport.GemmProduct`,
    computed when its rows are asked for (traced, it emits one
    ``cosma-plane-gemm`` span with the summed GEMM time), or, when
    ``machine.shards > 1``, the dense copy of the shard pool's output.
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
        post_fiber_exchange(machine, decomposition, "get" if use_rma else "tree")

    # ------------------------------------------------------------------
    # numerics: one GEMM box over the owned k extent
    # ------------------------------------------------------------------
    gemm_args = {"layers": decomposition.grid.pk, "m": m, "n": n, "k": k,
                 "shards": machine.shards if sharded else 1}
    if sharded:
        gemm_span = (
            trace.tracer.span("cosma-plane-gemm", cat="gemm", args=gemm_args, track="gemm")
            if trace is not None
            else nullcontext()
        )
        with gemm_span:
            product = _sharded_gemm(machine, decomposition, a_matrix, b_matrix)
    else:
        product = layer_product(machine, decomposition, a_matrix, b_matrix)
        if numeric and trace is not None:
            product.span = (trace.tracer, "cosma-plane-gemm", gemm_args)

    # The C reduction is counted only: the GEMM already summed over k.
    post_c_reduction(machine, decomposition)
    machine.check_memory()
    return product


__all__ = ["cosma_run", "counted_rounds", "received_words"]
