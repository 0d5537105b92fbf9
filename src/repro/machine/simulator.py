"""Distributed machine simulator with exact communication accounting.

The paper's machine model (section 2.1): ``p`` processors, each with a local
memory of ``S`` words; any processor can exchange up to ``S`` words with any
other; all operands of a computation must reside in local memory.

Per-rank state is two machine-level arrays: the counter matrix
(:attr:`CommCounters.data <repro.machine.counters.CommCounters.data>`, one
row per counter field, one column per rank), from which the harness reads the
same "MB communicated per rank" quantity that the paper measures with mpiP,
and one int64 vector of resident words.  The algorithms in
:mod:`repro.core` and :mod:`repro.baselines` are batched engines: each posts
its whole schedule as machine-wide array expressions and computes the
product with GEMMs on views of the operands; no engine moves a block from
rank to rank.  Every write to the counter matrix is one posting call --
:meth:`~DistributedMachine.post_transfers` for a message list,
:meth:`~DistributedMachine.post_delta` for a closed-form delta,
:meth:`~DistributedMachine.post_flops` for local work -- and residency is
:meth:`~DistributedMachine.post_resident`.  Under a tracer each posting call
also emits one round span per round class it posts (a label, the first
round, the multiplicity and one round's words, flops and hops;
:mod:`repro.obs.trace`), read off the delta it posts, so the counters are
the same traced or not.  The per-hop
executors those engines replaced are kept as a test-side reference
(``tests/oracle``), which the parity suites hold every engine to.

The simulator does not try to model time directly; the time model in
:mod:`repro.experiments.perf_model` prices the counters (the busiest rank's
flops, rounds and words) into simulated runtimes with an alpha-beta-gamma
model.

Execution modes
---------------

The physical representation of payloads is the ``mode=`` argument
(:mod:`repro.machine.transport`).  All counters are identical across modes
because accounting only ever reads sizes:

``plane``
    The numeric engine: operands are numpy arrays that feed GEMMs, and the
    product is a :class:`~repro.machine.transport.GemmProduct` (the GEMM
    boxes of the schedule, computed one row stripe at a time when asked) or
    a dense array.  The machine holds no product.  Results verify.
``volume``
    Payloads are :class:`~repro.machine.transport.ShapeToken` descriptors:
    the same engines minus the numerics, for paper-scale sweeps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.machine.counters import FLOPS, MESSAGES_SENT, WORDS_SENT, CommCounters
from repro.machine.transport import PayloadPlane, Transport, make_transport
from repro.obs.trace import MachineTrace, active_tracer
from repro.utils.validation import check_positive_int


#: Local memory ``S`` per rank, in words, when ``memory_words`` is omitted.
DEFAULT_MEMORY_WORDS = 1 << 20


class LocalMemoryExceededError(RuntimeError):
    """Raised when a rank's resident data exceeds its local memory ``S``."""


class Rank:
    """One simulated processor's view of the machine: its resident words."""

    __slots__ = ("rank_id", "_resident")

    def __init__(self, rank_id: int, resident: np.ndarray) -> None:
        self.rank_id = rank_id
        self._resident = resident

    def resident_words(self) -> int:
        """Number of words currently resident in this rank's local memory."""
        return int(self._resident[self.rank_id])


class DistributedMachine:
    """A ``p``-processor distributed-memory machine with word-exact accounting.

    Parameters
    ----------
    p:
        Number of processors (ranks).
    memory_words:
        Local memory size ``S`` per rank, in words
        (:data:`DEFAULT_MEMORY_WORDS` when omitted).  When ``enforce_memory``
        is true, :meth:`check_memory` raises if any rank's resident data
        exceeds this budget.
    enforce_memory:
        Whether :meth:`check_memory` raises (True) or merely records the peak
        usage (False).  Algorithms call ``check_memory`` at the end of every
        communication round.
    mode:
        Payload transport: ``"plane"`` (verified numerics, the default)
        or ``"volume"`` (counters-only shape tokens); see the module docstring
        and :mod:`repro.machine.transport`.
    shards:
        Accepted, validated and not read: every engine computes its
        product in process, so counters and products are the same at any
        shard count and no process is started.  It stays while the
        benchmark ledger passes it (and times :mod:`repro.machine.shard`,
        the pool no engine uses any more) and leaves with that module.
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
        enforce_memory: bool = False,
        mode: str = "plane",
        shards: int = 1,
        plane_dtype: str = "float64",
    ) -> None:
        self.p = check_positive_int(p, "p")
        self.shards = check_positive_int(shards, "shards")
        self.transport: Transport = make_transport(mode, dtype=plane_dtype)
        self.memory_words = int(memory_words) if memory_words is not None else DEFAULT_MEMORY_WORDS
        if self.memory_words <= 0:
            raise ValueError(f"memory_words must be positive, got {self.memory_words}")
        self.enforce_memory = bool(enforce_memory)
        # One shared counter matrix and one resident-words vector.
        self.counters = CommCounters.for_ranks(self.p)
        self._resident = np.zeros(self.p, dtype=np.int64)
        #: Words posted per block name by :meth:`post_resident`, so that
        #: posting a name again replaces what a rank held under it.
        self._posted: dict[str, np.ndarray] = {}
        self.peak_resident_words = 0
        #: Named :class:`~repro.machine.transport.PayloadPlane` stacks
        #: (:meth:`new_plane`); no engine registers one.
        self.planes: dict[str, PayloadPlane] = {}
        #: Round spans, attached only while tracing is enabled
        #: (:mod:`repro.obs.trace`): the posting calls emit one per round
        #: class they post, built from the delta they post, and post the same
        #: counters traced or not.
        tracer = active_tracer()
        self.trace: MachineTrace | None = (
            MachineTrace(tracer, self.transport.mode) if tracer is not None else None
        )

    # ------------------------------------------------------------------
    # basic rank access
    # ------------------------------------------------------------------
    def rank(self, rank_id: int) -> Rank:
        """A view of rank ``rank_id``'s resident words."""
        if not 0 <= rank_id < self.p:
            raise IndexError(f"rank {rank_id} out of range for machine with p={self.p}")
        return Rank(rank_id, self._resident)

    @property
    def mode(self) -> str:
        """The active transport mode (``plane`` / ``volume``)."""
        return self.transport.mode

    # ------------------------------------------------------------------
    # payload planes (named numeric sheets)
    # ------------------------------------------------------------------
    def register_plane(
        self, name: str, plane: PayloadPlane, replace: bool = False
    ) -> PayloadPlane:
        """Register a named operand plane (one per logical operand per run).

        Planes are per-run state, and no engine registers one: callers that
        time a stacked C apart from any run do, with ``replace=True`` to
        supersede an earlier plane of the name.  Registering a name twice
        without ``replace`` is an error.
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
    # communication and memory accounting
    # ------------------------------------------------------------------
    def post_transfers(self, srcs: Sequence[int], dsts: Sequence[int], words,
                       kind: str = "input", label: str = "transfers") -> None:
        """Batched accounting for many point-to-point transfers at once: one
        message per ``(srcs[i], dsts[i])`` pair moving ``words`` (a scalar, or
        one entry per pair); no payload is delivered.  The cuboid executor
        posts each matrix's transfers through it as one vectorized update
        (:meth:`CommCounters.post_transfers
        <repro.machine.counters.CommCounters.post_transfers>`).  Traced, one
        round span named ``label``.
        """
        self.counters.post_transfers(srcs, dsts, words, kind=kind)
        if self.trace is not None:
            hops = len(srcs)
            self.trace.span(label, 1, np.broadcast_to(words, (hops,)).sum(), 0, hops,
                            self.peak_resident_words)

    def post_delta(self, label: str, delta: np.ndarray,
                   classes: Iterable[tuple[range, np.ndarray]] | None = None) -> None:
        """Add ``delta``, an int64 ``(field, rank)`` array of ``c`` columns,
        to the counters of ranks ``0 .. c - 1``: a closed-form delta an engine
        wrote itself (Cannon's skew, the C reduction, the grid family's panel
        exchange, the 1D all-gather's ring).

        Traced, one round span named ``label`` per round class: ``delta`` is
        one round, unless the engine posts the sum of several round classes
        at once and passes them as ``classes``, ``(rounds, one_round)`` pairs
        with ``delta`` the sum of ``len(rounds) * one_round``.  Only a tracer
        reads ``classes``.
        """
        self.counters.data[:, : delta.shape[1]] += delta
        if self.trace is not None:
            for rounds, one_round in ((range(1), delta),) if classes is None else classes:
                self.trace.span(label, len(rounds), one_round[WORDS_SENT].sum(),
                                one_round[FLOPS].sum(), one_round[MESSAGES_SENT].sum(),
                                self.peak_resident_words)

    def post_flops(self, label: str, ranks, flops: np.ndarray) -> None:
        """Local work: ``ranks`` (an index array, repeated ranks accumulating,
        or a slice) do ``flops``, one entry per rank.  Traced, one round span
        named ``label``."""
        np.add.at(self.counters.data[FLOPS], ranks, flops)
        if self.trace is not None:
            self.trace.span(label, 1, 0, flops.sum(), 0, self.peak_resident_words)

    def post_resident(self, name: str, ranks, words) -> None:
        """Residency accounting: ``ranks`` now hold ``words`` under ``name``.

        ``ranks`` is an index array or a slice naming each rank at most once,
        ``words`` a scalar or one entry per rank.  Posting a name again
        replaces what the rank held under it; nothing is stored, only the
        resident-words vector moves.
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
