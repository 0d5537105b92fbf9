"""Distributed machine simulator with exact communication accounting.

The paper's machine model (section 2.1): ``p`` processors, each with a local
memory of ``S`` words; any processor can exchange up to ``S`` words with any
other; all operands of a computation must reside in local memory.

Algorithms in :mod:`repro.core` and :mod:`repro.baselines` are written as
coordinator-style programs that move numpy blocks between ranks *only*
through the machine's communication primitives.  Every primitive updates the
machine's counter matrix (:attr:`CommCounters.data
<repro.machine.counters.CommCounters.data>`, one row per counter field, one
column per rank), so the harness can read off the same "MB communicated per
rank" quantity that the paper measures with mpiP.  Per-rank state is two
machine-level arrays -- the counter matrix and one int64 vector of resident
words.  A per-hop primitive writes cells of the matrix; a :class:`Rank` holds
one rank's store and views its resident words, built on first use of
:attr:`DistributedMachine.ranks`: the per-hop executors keep their blocks in
the ranks' stores, the batched engines post whole-machine array expressions
(:meth:`~DistributedMachine.post_resident`,
:meth:`~DistributedMachine.post_transfers`), build no rank and leave every
store empty.

The simulator does not try to model time directly; the analytic performance
model in :mod:`repro.experiments.perf_model` converts the counters into
simulated runtimes using an alpha-beta-gamma model.

Execution modes
---------------

The physical representation of payloads is pluggable (``mode=`` argument);
:mod:`repro.machine.transport` describes the four transports.  All
communication counters are identical across modes because accounting only
ever reads payload shapes:

``legacy`` / ``zerocopy``
    Per-hop execution: every delivery is a private writable copy, or a shared
    read-only view.  Numerics preserved; these are the reference semantics.
``plane``
    The stacked-array numeric engine: opted-in algorithms keep each operand
    in a :class:`~repro.machine.transport.PayloadPlane` registered on the
    machine (:meth:`DistributedMachine.register_plane`) and run whole-stack
    numpy operations while posting counters batched.  Results verify.
``volume``
    Payloads are :class:`~repro.machine.transport.ShapeToken` descriptors:
    counters only, no numerics, paper-scale sweeps.  Every built-in algorithm
    runs its ``plane`` engine minus the numerics here; an algorithm without
    one runs its per-hop loop on tokens, one :meth:`DistributedMachine.send`
    per hop.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

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
from repro.machine.topology import MachineSpec, laptop_spec
from repro.machine.transport import (
    PayloadPlane,
    ShapeToken,
    Transport,
    is_token,
    make_transport,
    payload_shape,
    payload_words,
)
from repro.obs.trace import MachineTrace, active_tracer
from repro.utils.intmath import run_starts
from repro.utils.validation import check_positive_int


class LocalMemoryExceededError(RuntimeError):
    """Raised when a rank's resident data exceeds its local memory ``S``."""


class Rank:
    """One simulated processor: a lazy view of the machine's per-rank state.

    ``rank_id`` is the processor index in ``[0, p)`` and ``store`` its named
    local blocks (any naming convention; only the per-hop executors keep
    blocks here).  The resident
    footprint lives in the machine's resident-words vector: :meth:`put` /
    :meth:`pop` write their size deltas through to it, so blocks stored here
    and residency posted in bulk share one ledger.
    """

    __slots__ = ("rank_id", "store", "_resident")

    def __init__(self, rank_id: int, resident: np.ndarray) -> None:
        self.rank_id = rank_id
        self.store: dict[str, np.ndarray] = {}
        self._resident = resident

    def resident_words(self) -> int:
        """Number of words currently resident in this rank's local memory."""
        return int(self._resident[self.rank_id])

    def put(self, name: str, block: np.ndarray) -> None:
        """Place ``block`` into the local store under ``name``."""
        old = self.store.get(name)
        self.store[name] = block
        self._resident[self.rank_id] += payload_words(block) - (
            0 if old is None else payload_words(old)
        )

    def get(self, name: str) -> np.ndarray:
        return self.store[name]

    def pop(self, name: str) -> np.ndarray:
        block = self.store.pop(name)
        self._resident[self.rank_id] -= payload_words(block)
        return block

    def has(self, name: str) -> bool:
        return name in self.store


class DistributedMachine:
    """A ``p``-processor distributed-memory machine with word-exact accounting.

    Parameters
    ----------
    p:
        Number of processors (ranks).
    memory_words:
        Local memory size ``S`` per rank, in words.  When ``enforce_memory``
        is true, :meth:`check_memory` raises if any rank's resident data
        exceeds this budget.
    spec:
        Optional :class:`~repro.machine.topology.MachineSpec` used by the
        performance model; defaults to a laptop-like spec with the given
        ``memory_words``.
    enforce_memory:
        Whether :meth:`check_memory` raises (True) or merely records the peak
        usage (False).  Algorithms call ``check_memory`` at the end of every
        communication round.
    mode:
        Payload transport: ``"legacy"`` (copy per delivery), ``"zerocopy"``
        (shared read-only views), ``"plane"`` (stacked-array numerics) or
        ``"volume"`` (counters-only shape tokens); see the module docstring
        and :mod:`repro.machine.transport`.
    shards:
        Numeric execution policy for plane-mode algorithms: the number of
        worker processes the batched GEMMs are sharded across
        (:mod:`repro.machine.shard`).  ``1`` (the default) keeps the
        in-process engine -- no pool, no shared memory.  Counters are
        byte-identical across shard counts because all accounting stays in
        the parent on the counter matrix; shards never participates in a
        run's identity key.
    plane_dtype:
        Element dtype for numeric payloads/planes (``"float64"`` default,
        ``"float32"`` opt-in).  Counters are dtype-independent (words are
        elements); verification uses relative tolerances scaled to the
        dtype.  Ignored by ``volume`` mode.
    """

    def __init__(
        self,
        p: int,
        memory_words: int | None = None,
        spec: MachineSpec | None = None,
        enforce_memory: bool = False,
        mode: str = "legacy",
        shards: int = 1,
        plane_dtype: str = "float64",
    ) -> None:
        self.p = check_positive_int(p, "p")
        self.shards = check_positive_int(shards, "shards")
        self.transport: Transport = make_transport(mode, dtype=plane_dtype)
        if spec is None:
            spec = laptop_spec(memory_words or (1 << 20))
        self.spec = spec
        self.memory_words = int(memory_words) if memory_words is not None else spec.memory_words_per_core
        if self.memory_words <= 0:
            raise ValueError(f"memory_words must be positive, got {self.memory_words}")
        self.enforce_memory = bool(enforce_memory)
        # One shared counter matrix and one resident-words vector; ranks view
        # the vector and are built on first use.
        self.counters = CommCounters.for_ranks(self.p)
        self._resident = np.zeros(self.p, dtype=np.int64)
        #: Words posted per block name by :meth:`post_resident`, so that
        #: posting a name again replaces it (as :meth:`Rank.put` does).
        self._posted: dict[str, np.ndarray] = {}
        self._ranks: list[Rank] | None = None
        self.peak_resident_words = 0
        #: Named :class:`~repro.machine.transport.PayloadPlane` stacks
        #: registered by plane-mode algorithms (one per logical operand).
        self.planes: dict[str, PayloadPlane] = {}
        #: Round-span accumulator, attached only while tracing is enabled
        #: (:mod:`repro.obs.trace`).  Every instrumentation site guards on
        #: ``is not None`` and only ever *reads* machine state, so counters
        #: are byte-identical traced vs untraced.
        tracer = active_tracer()
        self.trace: MachineTrace | None = (
            MachineTrace(tracer, self.counters.data, self.transport.mode)
            if tracer is not None
            else None
        )
        if self.trace is not None:
            self.transport.observer = self.trace

    # ------------------------------------------------------------------
    # basic rank access
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> list[Rank]:
        """One :class:`Rank` view per processor, materialized on first use."""
        if self._ranks is None:
            self._ranks = [Rank(i, self._resident) for i in range(self.p)]
        return self._ranks

    def rank(self, rank_id: int) -> Rank:
        return self.ranks[self.check_rank(rank_id)]

    def check_rank(self, rank_id: int) -> int:
        """``rank_id``, once it is known to name one of the ``p`` ranks (a
        counter cell is written at it; a negative index would wrap)."""
        if not 0 <= rank_id < self.p:
            raise IndexError(f"rank {rank_id} out of range for machine with p={self.p}")
        return rank_id

    @property
    def mode(self) -> str:
        """The active transport mode (``legacy`` / ``zerocopy`` / ``plane`` / ``volume``)."""
        return self.transport.mode

    def zeros(self, shape: Sequence[int]):
        """A zero-initialized local payload (an array, or a token in volume mode)."""
        return self.transport.zeros(shape)

    # ------------------------------------------------------------------
    # payload planes (stacked-array numeric engine)
    # ------------------------------------------------------------------
    def register_plane(
        self, name: str, plane: PayloadPlane, replace: bool = False
    ) -> PayloadPlane:
        """Register a named operand plane (one per logical operand per run).

        Planes are per-run state.  Algorithms register their own operands
        with ``replace=True`` so a machine reused for a second plane-mode
        run (counters accumulating, like every other transport) simply
        supersedes the previous run's planes; registering a foreign name
        twice without ``replace`` is an error.
        """
        if name in self.planes and not replace:
            raise ValueError(f"plane {name!r} is already registered")
        self.planes[name] = plane
        return plane

    def clear_planes(self) -> None:
        """Drop every registered operand plane (machine reuse)."""
        self.planes.clear()

    def new_plane(self, name: str, shape: Sequence[int]) -> PayloadPlane:
        """Allocate and register a zero-initialized ``(slots, rows, cols)`` plane."""
        return self.register_plane(
            name, PayloadPlane(name, shape=shape, dtype=self.transport.dtype),
            replace=True,
        )

    # ------------------------------------------------------------------
    # point-to-point communication
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        block: np.ndarray,
        kind: str = "input",
        count_round: bool = True,
    ) -> np.ndarray:
        """Transfer ``block`` from rank ``src`` to rank ``dst``.

        Returns the payload delivered at ``dst``: a private copy in legacy
        mode (sender and receiver never alias the same buffer, mirroring MPI
        semantics), a shared read-only view in zerocopy mode, or a shape
        token in volume mode.  A transfer from a rank to itself is free, as
        in MPI shared-memory shortcuts -- no counters are updated.

        ``kind`` is either ``"input"`` (matrices A/B) or ``"output"``
        (partial/final C); Figure 12 reports these separately.
        """
        if src == dst:
            return self.transport.self_copy(block)
        if not 0 <= src < self.p:
            raise IndexError(f"rank {src} out of range for machine with p={self.p}")
        if not 0 <= dst < self.p:
            raise IndexError(f"rank {dst} out of range for machine with p={self.p}")
        words = payload_words(block)
        # Scalar update straight into the shared counter matrix (the batched
        # equivalent for a whole transfer list is post_transfers).
        data = self.counters.data
        data[WORDS_SENT, src] += words
        data[MESSAGES_SENT, src] += 1
        data[WORDS_RECEIVED, dst] += words
        data[MESSAGES_RECEIVED, dst] += 1
        split = OUTPUT_WORDS if kind == "output" else INPUT_WORDS
        data[split, src] += words
        data[split, dst] += words
        if count_round:
            data[ROUNDS, src] += 1
            data[ROUNDS, dst] += 1
        if self.trace is not None:
            self.trace.hop()
        return self.transport.deliver(block)

    def post_transfers(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        words,
        kind: str = "input",
        count_rounds: bool = True,
    ) -> None:
        """Batched accounting for many point-to-point transfers at once.

        Counter-equivalent to one :meth:`send` per ``(srcs[i], dsts[i])``
        pair moving ``words`` (a scalar, or one entry per pair); no payload
        is delivered.  The cuboid executor posts each matrix's transfers
        through it as one vectorized update instead of one ``send`` per pair.
        """
        self.counters.post_transfers(srcs, dsts, words, kind=kind, count_rounds=count_rounds)
        if self.trace is not None:
            self.trace.hops_batch(len(srcs))

    # ------------------------------------------------------------------
    # local compute accounting
    # ------------------------------------------------------------------
    def local_multiply(
        self,
        rank_id: int,
        a_block: np.ndarray,
        b_block: np.ndarray,
        accumulate_into: np.ndarray | None = None,
    ) -> np.ndarray:
        """Perform a local (BLAS-like) multiplication on ``rank_id``.

        Counts ``2 * m * n * k`` flops and returns the (possibly accumulated)
        product.  With token payloads (volume mode) only the flop counter is
        updated and a token of the product's shape is returned.
        """
        self.check_rank(rank_id)
        counters_only = is_token(a_block) or is_token(b_block) or is_token(accumulate_into)
        if not counters_only:
            # A float32 x float32 multiply stays float32 (the opt-in plane
            # dtype must never silently round-trip through float64); any
            # other operand mix is normalized to the float64 reference path.
            a_block = np.asarray(a_block)
            b_block = np.asarray(b_block)
            if not (a_block.dtype == np.float32 and b_block.dtype == np.float32):
                a_block = np.asarray(a_block, dtype=np.float64)
                b_block = np.asarray(b_block, dtype=np.float64)
        # Validation and flop accounting are shared across modes so the two
        # representations can never diverge.
        a_shape = payload_shape(a_block)
        b_shape = payload_shape(b_block)
        if len(a_shape) != 2 or len(b_shape) != 2:
            raise ValueError("local_multiply expects 2-D blocks")
        if a_shape[1] != b_shape[0]:
            raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")
        m, k = a_shape
        n = b_shape[1]
        if accumulate_into is not None and payload_shape(accumulate_into) != (m, n):
            raise ValueError(
                f"accumulation buffer shape {payload_shape(accumulate_into)} "
                f"does not match product {(m, n)}"
            )
        self.counters.data[FLOPS, rank_id] += 2 * m * n * k
        if counters_only:
            return ShapeToken((m, n)) if accumulate_into is None else accumulate_into
        product = a_block @ b_block
        if accumulate_into is None:
            return product
        accumulate_into += product
        return accumulate_into

    def local_add(self, rank_id: int, target: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Accumulate ``other`` into ``target`` on ``rank_id`` (reduction flops)."""
        self.check_rank(rank_id)
        if is_token(target) or is_token(other):
            if payload_shape(target) != payload_shape(other):
                raise ValueError(
                    f"shape mismatch in local_add: {payload_shape(target)} vs {payload_shape(other)}"
                )
            self.counters.data[FLOPS, rank_id] += payload_words(target)
            return target
        other = np.asarray(other)
        if target.shape != other.shape:
            raise ValueError(f"shape mismatch in local_add: {target.shape} vs {other.shape}")
        self.counters.data[FLOPS, rank_id] += int(target.size)
        target += other
        return target

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def post_resident(self, name: str, ranks, words) -> None:
        """Batched :meth:`Rank.put` accounting: ``ranks`` now hold ``words`` under ``name``.

        ``ranks`` is an index array or a slice naming each rank at most once,
        ``words`` a scalar or one entry per rank.  Posting a name again
        replaces what the rank held under it; nothing is stored, only the
        resident-words vector moves (by the same amounts as one ``put`` of a
        block of that size per rank).
        """
        posted = self._posted.get(name)
        if posted is None:
            posted = self._posted[name] = np.zeros(self.p, dtype=np.int64)
        self._resident[ranks] += words - posted[ranks]
        posted[ranks] = words

    def check_memory(self) -> int:
        """Record (and optionally enforce) the per-rank resident footprint.

        Returns the current maximum resident words over all ranks.
        """
        resident = self._resident
        offender = int(resident.argmax())  # the first rank at the maximum
        worst = int(resident[offender])
        if worst > self.peak_resident_words:
            self.peak_resident_words = worst
        if self.enforce_memory and worst > self.memory_words:
            raise LocalMemoryExceededError(
                f"rank {offender} holds {worst} words which exceeds the local memory S={self.memory_words}"
            )
        return worst

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def log_round(self, label: str) -> None:
        """A labelled round boundary: the label names the round's span."""
        if self.trace is not None:
            self.trace.end_round(label, self.peak_resident_words)

    # ------------------------------------------------------------------
    # round classes
    # ------------------------------------------------------------------
    def round_classes(
        self, table: np.ndarray, post_class: Callable[[CommCounters, np.ndarray], None]
    ) -> Iterator[tuple[range, CommCounters]]:
        """Post every maximal run of equal ``table`` rows once (a round class).

        Row ``r`` of ``table`` must determine round ``r``'s whole schedule
        (participants, payload sizes, flops); steady-state schedules repeat
        rows by construction.  For each run, ``post_class(delta, row)`` writes
        one round's counters into the zeroed scratch counter set ``delta`` and
        ``(rounds, delta)`` is yielded for the engine to add with its
        multiplicity (:meth:`post_rounds`).  The scratch set is reused from
        run to run.
        """
        delta = CommCounters.for_ranks(self.p)
        starts = run_starts(table)
        for first, stop in zip(starts, [*starts[1:], len(table)]):
            delta.reset()
            post_class(delta, table[first])
            yield range(first, stop), delta

    def post_rounds(
        self, delta: CommCounters, rounds: range, boundary: Callable[[int], None] | None = None
    ) -> None:
        """Add every round of a class to the counters, byte-identical to
        posting each round's schedule again, with the engine's round boundary
        ``boundary(r)`` (``log_round`` / ``commit_round``) after each.  Untraced
        that is one add of ``len(rounds) * delta``; a round span reads the
        matrix at its boundary, so under a tracer adds and boundaries alternate."""
        data, step = self.counters.data, delta.data
        if self.trace is None:
            data += len(rounds) * step
        hops = None if self.trace is None else delta.total_messages
        for r in rounds:
            if hops is not None:
                data += step
                self.trace.hops_batch(hops)
            if boundary is not None:
                boundary(r)

    def commit_round(self) -> None:
        """Round boundary for algorithms that do not label rounds with :meth:`log_round`."""
        if self.trace is not None:
            self.trace.commit_round(self.peak_resident_words)
