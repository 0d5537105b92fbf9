"""Communication counters -- the simulator's stand-in for the mpiP profiler.

Every point-to-point transfer and every collective performed on the
:class:`~repro.machine.simulator.DistributedMachine` updates these counters.
The experiment harness reads them to produce the "MB communicated per core"
series of Figures 6-7 and the per-rank averages of Table 4.

Batched counter engine
----------------------

All per-rank counters of one machine live in one dense ``int64`` array,
:attr:`CommCounters.data`: one row per counter field (:data:`COUNTER_FIELDS`,
eight rows), one column per rank.  A batched engine posts **one update for a
whole transfer list** (:meth:`CommCounters.post_transfers`) or writes whole
rows, and every machine-wide aggregate (totals, means, maxima, conservation)
is one vectorized numpy reduction.

A per-hop primitive writes no cell.  It appends its increments to the
counters' log instead, after its rank bounds check: ``send`` one transfer
record (:meth:`CommCounters.log_send`), ``local_multiply``, ``local_add``,
the collectives and ``rma_get`` one cell tick each
(:meth:`CommCounters.log_tick`).  The log is applied with the same exact
``np.add.at`` row updates as :meth:`~CommCounters.post_transfers`, on every
get or set of :attr:`~CommCounters.data` and whenever it reaches a fixed
size, so ``data`` is the one place a counter is read and no reader sees a
stale matrix.  Eight scalar read-modify-writes of numpy cells per ``send``
would cost more than the rest of the transfer; an append costs a list
append.

The array layout is also what makes **round classes** cheap: the counter
delta of a whole communication round is a ``fields x p`` integer array, so a
batched engine that knows its repeats up front writes each distinct round once
into a scratch :class:`CommCounters` (array arithmetic over its rows, no
transfer list) and adds it times the class's rounds (:meth:`post_rounds
<repro.machine.simulator.DistributedMachine.post_rounds>`).  Cannon adds its
skew that way, one delta once.  The grid family (COSMA, SUMMA, Cannon, 2.5D)
writes class deltas only under a tracer, whose round spans read this array at
every boundary; untraced it sums its rounds before they reach rank size and adds one
expansion per run straight into the rows of the live array
(:func:`repro.core.cosma.post_fiber_exchange`), so a second run on the same
machine still accumulates.
"""

from __future__ import annotations

import numpy as np

#: Per-rank counter fields, in row order.
COUNTER_FIELDS = (
    "words_sent",
    "words_received",
    "messages_sent",
    "messages_received",
    "flops",
    "rounds",
    "input_words",
    "output_words",
)

#: Row indices, one per entry of :data:`COUNTER_FIELDS`.
(
    WORDS_SENT,
    WORDS_RECEIVED,
    MESSAGES_SENT,
    MESSAGES_RECEIVED,
    FLOPS,
    ROUNDS,
    INPUT_WORDS,
    OUTPUT_WORDS,
) = range(len(COUNTER_FIELDS))


#: Integers the log holds before a write applies it (a transfer record is
#: five, a tick three): bounds its memory at well under a MiB.
_LOG_SIZE = 1 << 15


class ConservationError(RuntimeError):
    """Raised when the machine-wide sent and received word totals disagree."""


class CommCounters:
    """The counters of a whole distributed run: ``data``, one ``int64`` row per
    field of :data:`COUNTER_FIELDS` and one column per rank, plus the log of
    per-hop increments not yet applied to it (see the module docstring)."""

    __slots__ = ("_data", "_sends", "_ticks")

    def __init__(self, data: np.ndarray) -> None:
        self._data = data
        #: Flat ``(src, dst, words, split row, counts round)`` records.
        self._sends: list = []
        #: Flat ``(row, rank, amount)`` records.
        self._ticks: list = []

    @classmethod
    def for_ranks(cls, p: int) -> "CommCounters":
        """Zeroed counters for ``p`` ranks."""
        return cls(np.zeros((len(COUNTER_FIELDS), int(p)), dtype=np.int64))

    @property
    def data(self) -> np.ndarray:
        """The counter matrix, with every logged increment applied."""
        if self._sends or self._ticks:
            self._apply_log()
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        # ``counters.data += delta`` is a get, an in-place add and this set.
        if self._sends or self._ticks:
            self._apply_log()
        self._data = value

    # -- aggregate views (vectorized) -----------------------------------
    @property
    def p(self) -> int:
        return int(self.data.shape[1])

    @property
    def total_words_sent(self) -> int:
        return int(self.data[WORDS_SENT].sum())

    @property
    def total_words_received(self) -> int:
        return int(self.data[WORDS_RECEIVED].sum())

    @property
    def total_messages(self) -> int:
        return int(self.data[MESSAGES_SENT].sum())

    @property
    def total_flops(self) -> int:
        return int(self.data[FLOPS].sum())

    def max_words_per_rank(self) -> int:
        """Maximum words moved through any single rank (critical-path volume)."""
        if not self.p:
            return 0
        return int((self.data[WORDS_SENT] + self.data[WORDS_RECEIVED]).max())

    def mean_words_per_rank(self) -> float:
        """Average words moved per rank -- the quantity reported in Table 4."""
        if not self.p:
            return 0.0
        return float(self.total_words_sent + self.total_words_received) / self.p

    def mean_received_per_rank(self) -> float:
        if not self.p:
            return 0.0
        return self.total_words_received / self.p

    def max_received_per_rank(self) -> int:
        if not self.p:
            return 0
        return int(self.data[WORDS_RECEIVED].max())

    def max_flops_per_rank(self) -> int:
        if not self.p:
            return 0
        return int(self.data[FLOPS].max())

    def max_messages_per_rank(self) -> int:
        """Messages (sent + received) on the busiest rank."""
        if not self.p:
            return 0
        return int((self.data[MESSAGES_SENT] + self.data[MESSAGES_RECEIVED]).max())

    def mean_input_words_per_rank(self) -> float:
        return float(self.data[INPUT_WORDS].sum()) / max(1, self.p)

    def mean_output_words_per_rank(self) -> float:
        return float(self.data[OUTPUT_WORDS].sum()) / max(1, self.p)

    def max_rounds(self) -> int:
        """Latency proxy: maximum number of communication rounds on any rank."""
        if not self.p:
            return 0
        return int(self.data[ROUNDS].max())

    def mean_megabytes_per_rank(self, word_bytes: int = 8) -> float:
        """Average megabytes moved per rank, matching Table 4's units."""
        return self.mean_words_per_rank() * word_bytes / 1e6

    def conservation_ok(self) -> bool:
        """Every word sent must have been received by exactly one rank."""
        return self.total_words_sent == self.total_words_received

    def assert_conservation(self) -> None:
        """Raise :class:`ConservationError` unless sent == received machine-wide."""
        if not self.conservation_ok():
            raise ConservationError(
                f"word conservation violated: {self.total_words_sent} words sent "
                f"but {self.total_words_received} received"
            )

    # -- batched updates -------------------------------------------------
    def post_transfers(
        self,
        srcs,
        dsts,
        words,
        kind: str = "input",
        count_rounds: bool = True,
    ) -> None:
        """One batched accounting update for many point-to-point transfers.

        Equivalent to calling :meth:`DistributedMachine.send` once per
        ``(srcs[i], dsts[i], words[i])`` triple -- words/messages/rounds and
        the input/output split are incremented identically (``np.add.at``
        accumulates ranks that appear several times, exactly in int64).
        ``words`` may be a scalar (every transfer moves the same payload) or a
        per-transfer sequence.  The log's transfer records are applied
        through this method too.
        """
        srcs = np.asarray(srcs, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        data = self.data
        np.add.at(data[WORDS_SENT], srcs, words)
        np.add.at(data[WORDS_RECEIVED], dsts, words)
        np.add.at(data[MESSAGES_SENT], srcs, 1)
        np.add.at(data[MESSAGES_RECEIVED], dsts, 1)
        split = OUTPUT_WORDS if kind == "output" else INPUT_WORDS
        np.add.at(data[split], srcs, words)
        np.add.at(data[split], dsts, words)
        if count_rounds:
            np.add.at(data[ROUNDS], srcs, 1)
            np.add.at(data[ROUNDS], dsts, 1)

    # -- the per-hop log -------------------------------------------------
    def log_send(self, src: int, dst: int, words: int, split: int, count_round: bool) -> None:
        """Log one transfer of ``words`` from ``src`` to ``dst`` whose words
        also count in row ``split`` (``INPUT_WORDS`` / ``OUTPUT_WORDS``); the
        caller has checked both ranks."""
        sends = self._sends
        sends += (src, dst, words, split, count_round)
        if len(sends) + len(self._ticks) >= _LOG_SIZE:
            self._apply_log()

    def log_tick(self, row: int, rank: int, amount: int) -> None:
        """Log ``data[row, rank] += amount``; the caller has checked ``rank``."""
        ticks = self._ticks
        ticks += (row, rank, amount)
        if len(self._sends) + len(ticks) >= _LOG_SIZE:
            self._apply_log()

    def _apply_log(self) -> None:
        sends, ticks = self._sends, self._ticks
        if ticks:
            rows, ranks, amounts = np.fromiter(
                ticks, dtype=np.int64, count=len(ticks)).reshape(-1, 3).T
            ticks.clear()
            np.add.at(self._data, (rows, ranks), amounts)
        if sends:
            srcs, dsts, words, splits, rounds = np.fromiter(
                sends, dtype=np.int64, count=len(sends)).reshape(-1, 5).T
            sends.clear()
            # The log is empty now: post_transfers' read of ``data`` is plain.
            counted = rounds != 0
            for split, kind in ((INPUT_WORDS, "input"), (OUTPUT_WORDS, "output")):
                for count_rounds in (True, False):
                    group = (splits == split) & (counted == count_rounds)
                    if group.any():
                        self.post_transfers(srcs[group], dsts[group], words[group],
                                            kind=kind, count_rounds=count_rounds)

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        self._sends.clear()
        self._ticks.clear()
        self._data[...] = 0
