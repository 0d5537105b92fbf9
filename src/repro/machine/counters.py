"""Communication counters -- the simulator's stand-in for the mpiP profiler.

Every transfer, round and flop an engine posts on the
:class:`~repro.machine.simulator.DistributedMachine` lands in these counters.
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

The array layout is also what makes **round classes** cheap: the counter
delta of a whole communication round is a ``fields x ranks`` integer array,
so a batched engine writes a closed-form delta with array arithmetic over
its rows, no transfer list, and posts it in one call
(:meth:`~repro.machine.simulator.DistributedMachine.post_delta`): Cannon's
skew, the C reduction, the 1D all-gather's ring.  The grid family (COSMA,
SUMMA, Cannon, 2.5D) sums its whole panel exchange in closed form at
``(layer, owner)`` size, from the decomposition's boundary arrays, and posts
one expansion to ranks per run (:func:`repro.core.cosma.post_fiber_exchange`),
so a second run on the same machine still accumulates.  Traced or not, the
same calls post the same deltas; a tracer reads one span per round class off
what a call posts (the exchange's round classes start where a layer's chunk reaches an
ownership bound or the layer's end).
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


class ConservationError(RuntimeError):
    """Raised when the machine-wide sent and received word totals disagree."""


class CommCounters:
    """The counters of a whole distributed run: ``data``, one ``int64`` row per
    field of :data:`COUNTER_FIELDS` and one column per rank."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    @classmethod
    def for_ranks(cls, p: int) -> "CommCounters":
        """Zeroed counters for ``p`` ranks."""
        return cls(np.zeros((len(COUNTER_FIELDS), int(p)), dtype=np.int64))

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

        Each ``(srcs[i], dsts[i], words[i])`` triple is one message of
        ``words[i]`` words: words, messages, rounds (unless ``count_rounds`` is
        false) and the input/output split grow at both ends (``np.add.at``
        accumulates ranks that appear several times, exactly in int64).
        ``words`` may be a scalar (every transfer moves the same payload) or a
        per-transfer sequence.
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
