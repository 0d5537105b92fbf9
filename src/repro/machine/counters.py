"""Communication counters -- the simulator's stand-in for the mpiP profiler.

Every point-to-point transfer and every collective performed on the
:class:`~repro.machine.simulator.DistributedMachine` updates these counters.
The experiment harness reads them to produce the "MB communicated per core"
series of Figures 6-7 and the per-rank averages of Table 4.

Batched counter engine
----------------------

All per-rank counters of one machine live in a single dense
:class:`CounterMatrix` -- one ``int64`` row per counter field, one column per
rank.  :class:`RankCounters` objects are *lazy views* onto one column: every
pre-existing caller (``rank.counters.words_sent += n``, harness metric reads,
dataclass-style equality) keeps working, while a batched engine can post **one
update for a whole transfer list** (:meth:`CommCounters.post_transfers`)
instead of iterating Python ``Rank`` objects, and every
machine-wide aggregate (totals, means, maxima, conservation, round deltas)
is one vectorized numpy reduction.

The matrix layout is also what makes **round classes** cheap: the counter
delta of a whole communication round is a ``fields x p`` integer array, so a
batched engine that knows its repeats up front writes each distinct round once
into a scratch :class:`CommCounters` (array arithmetic over its rows, no
transfer list) and adds it times the class's rounds (:meth:`post_rounds
<repro.machine.simulator.DistributedMachine.post_rounds>`).  Cannon does so
for its two classes.  The grid family (COSMA, SUMMA, 2.5D) writes class deltas
only under a tracer, whose round spans read this matrix at every boundary;
untraced it sums its rounds before they reach rank size and adds one
expansion per run straight into the rows of the live matrix
(:func:`repro.core.cosma.post_fiber_exchange`), so a second run on the same
machine still accumulates.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Per-rank counter fields, in matrix row order.  ``round_start_words`` is the
#: ``total_words`` recorded at the last ``mark_round_start`` call --
#: incremental round-delta tracking that replaces per-round deep copies.
COUNTER_FIELDS = (
    "words_sent",
    "words_received",
    "messages_sent",
    "messages_received",
    "flops",
    "rounds",
    "input_words",
    "output_words",
    "round_start_words",
)

#: Matrix row indices, one per entry of :data:`COUNTER_FIELDS`.
(
    WORDS_SENT,
    WORDS_RECEIVED,
    MESSAGES_SENT,
    MESSAGES_RECEIVED,
    FLOPS,
    ROUNDS,
    INPUT_WORDS,
    OUTPUT_WORDS,
    ROUND_START_WORDS,
) = range(len(COUNTER_FIELDS))


class ConservationError(RuntimeError):
    """Raised when the machine-wide sent and received word totals disagree."""


#: Batches at least this large take the ``np.bincount`` scatter-add path
#: (roughly an order of magnitude faster than ``np.add.at``); tiny batches
#: are not worth the length-``p`` count allocation.
_BINCOUNT_MIN_BATCH = 32


def _scatter_add(row: np.ndarray, idx: np.ndarray, values) -> None:
    """Exact ``row[idx] += values`` with duplicate indices accumulating.

    ``row`` is an int64 counter row; both computation paths are exact:
    scalar ``values`` use integer bincounts, per-entry values use float64
    bincount weights only while every partial sum is exactly representable
    (< 2**53 -- integer-valued float64 arithmetic is lossless below that),
    falling back to ``np.add.at`` otherwise.
    """
    if idx.size < _BINCOUNT_MIN_BATCH:
        np.add.at(row, idx, values)
        return
    if np.ndim(values) == 0:
        counts = np.bincount(idx, minlength=row.size)
        row += counts if values == 1 else counts * int(values)
        return
    values = np.asarray(values, dtype=np.int64)
    if int(values.sum()) < 2**53:
        row += np.bincount(
            idx, weights=values.astype(np.float64), minlength=row.size
        ).astype(np.int64)
    else:
        np.add.at(row, idx, values)


class CounterMatrix:
    """Dense backing store: one ``int64`` row per counter field, one column per rank."""

    __slots__ = ("data",)

    def __init__(self, p: int, data: np.ndarray | None = None) -> None:
        if data is None:
            data = np.zeros((len(COUNTER_FIELDS), int(p)), dtype=np.int64)
        self.data = data

    @property
    def p(self) -> int:
        return int(self.data.shape[1])

    def copy(self) -> "CounterMatrix":
        return CounterMatrix(self.p, data=self.data.copy())

    def zero(self) -> None:
        self.data[...] = 0


def _rank_property(row: int):
    def fget(self) -> int:
        return int(self._matrix.data[row, self._rank])

    def fset(self, value) -> None:
        self._matrix.data[row, self._rank] = value

    return property(fget, fset)


class RankCounters:
    """Per-rank communication and computation counters.

    A lazy view onto one column of a :class:`CounterMatrix`.  Constructed
    standalone (``RankCounters(words_sent=5)``) it owns a private one-column
    matrix, so the historic value-object usage keeps working; the counters of
    a :class:`~repro.machine.simulator.DistributedMachine` are views into the
    machine's shared matrix, which is what lets collectives batch their
    updates and aggregates vectorize.
    """

    __slots__ = ("_matrix", "_rank")

    def __init__(
        self, *values: int, _matrix: CounterMatrix | None = None, _rank: int = 0, **named: int
    ) -> None:
        if _matrix is None:
            _matrix = CounterMatrix(1)
            _rank = 0
        self._matrix = _matrix
        self._rank = _rank
        # Dataclass-compatible construction: positional values bind to
        # COUNTER_FIELDS in order, keywords by name, duplicates rejected.
        if len(values) > len(COUNTER_FIELDS):
            raise TypeError(
                f"RankCounters takes at most {len(COUNTER_FIELDS)} counter values, "
                f"got {len(values)}"
            )
        for name, value in zip(COUNTER_FIELDS, values):
            if name in named:
                raise TypeError(f"RankCounters got multiple values for {name!r}")
            setattr(self, name, value)
        for name, value in named.items():
            if name not in COUNTER_FIELDS:
                raise TypeError(f"unknown counter field {name!r}; known: {COUNTER_FIELDS}")
            setattr(self, name, value)

    # Field properties (words_sent, ..., round_start_words) are attached
    # below the class body, one per COUNTER_FIELDS row.

    @property
    def total_words(self) -> int:
        """Total words moved through this rank (sent + received)."""
        return self.words_sent + self.words_received

    @property
    def total_messages(self) -> int:
        return self.messages_sent + self.messages_received

    def mark_round_start(self) -> None:
        """Remember the current total words so the round's delta can be read off."""
        self.round_start_words = self.words_sent + self.words_received

    def as_tuple(self) -> tuple[int, ...]:
        """The column values in :data:`COUNTER_FIELDS` order."""
        return tuple(int(v) for v in self._matrix.data[:, self._rank])

    def copy(self) -> "RankCounters":
        """A standalone (privately backed) copy of this column's values."""
        clone = RankCounters()
        clone._matrix.data[:, 0] = self._matrix.data[:, self._rank]
        return clone

    def __eq__(self, other) -> bool:
        if isinstance(other, RankCounters):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)}" for name in COUNTER_FIELDS)
        return f"RankCounters({body})"


for _row, _name in enumerate(COUNTER_FIELDS):
    setattr(RankCounters, _name, _rank_property(_row))
del _row, _name


class CommCounters:
    """Aggregated counters for a whole distributed run.

    Owns the machine's :class:`CounterMatrix`; ``per_rank`` is the list of
    per-column :class:`RankCounters` views, built on first use (a scratch
    counter set that only takes batched posts never pays for ``p`` view
    objects).  Constructing from an existing
    ``per_rank`` list *copies* the given values into a fresh matrix (the
    simulator shares state the other way around: it hands the matrix's views
    to its ranks).
    """

    __slots__ = ("matrix", "_per_rank")

    def __init__(
        self,
        per_rank: Sequence[RankCounters] | None = None,
        matrix: CounterMatrix | None = None,
    ) -> None:
        if matrix is None:
            matrix = CounterMatrix(0 if per_rank is None else len(per_rank))
            if per_rank is not None:
                for column, counters in enumerate(per_rank):
                    matrix.data[:, column] = counters.as_tuple()
        self.matrix = matrix
        self._per_rank: list[RankCounters] | None = None

    @property
    def per_rank(self) -> list[RankCounters]:
        if self._per_rank is None:
            self._per_rank = [
                RankCounters(_matrix=self.matrix, _rank=i) for i in range(self.matrix.p)
            ]
        return self._per_rank

    @classmethod
    def for_ranks(cls, p: int) -> "CommCounters":
        return cls(matrix=CounterMatrix(p))

    # -- aggregate views (vectorized) -----------------------------------
    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def total_words_sent(self) -> int:
        return int(self.matrix.data[WORDS_SENT].sum())

    @property
    def total_words_received(self) -> int:
        return int(self.matrix.data[WORDS_RECEIVED].sum())

    @property
    def total_messages(self) -> int:
        return int(self.matrix.data[MESSAGES_SENT].sum())

    @property
    def total_flops(self) -> int:
        return int(self.matrix.data[FLOPS].sum())

    def _total_words_per_rank(self) -> np.ndarray:
        return self.matrix.data[WORDS_SENT] + self.matrix.data[WORDS_RECEIVED]

    def max_words_per_rank(self) -> int:
        """Maximum words moved through any single rank (critical-path volume)."""
        if not self.p:
            return 0
        return int(self._total_words_per_rank().max())

    def mean_words_per_rank(self) -> float:
        """Average words moved per rank -- the quantity reported in Table 4."""
        if not self.p:
            return 0.0
        return float(self._total_words_per_rank().sum()) / self.p

    def mean_received_per_rank(self) -> float:
        if not self.p:
            return 0.0
        return self.total_words_received / self.p

    def max_received_per_rank(self) -> int:
        if not self.p:
            return 0
        return int(self.matrix.data[WORDS_RECEIVED].max())

    def max_flops_per_rank(self) -> int:
        if not self.p:
            return 0
        return int(self.matrix.data[FLOPS].max())

    def max_messages_per_rank(self) -> int:
        """Messages (sent + received) on the busiest rank."""
        if not self.p:
            return 0
        return int((self.matrix.data[MESSAGES_SENT] + self.matrix.data[MESSAGES_RECEIVED]).max())

    def mean_input_words_per_rank(self) -> float:
        return float(self.matrix.data[INPUT_WORDS].sum()) / max(1, self.p)

    def mean_output_words_per_rank(self) -> float:
        return float(self.matrix.data[OUTPUT_WORDS].sum()) / max(1, self.p)

    def max_rounds(self) -> int:
        """Latency proxy: maximum number of communication rounds on any rank."""
        if not self.p:
            return 0
        return int(self.matrix.data[ROUNDS].max())

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

    def mark_round_start(self) -> None:
        """Mark the start of a communication round on every rank (vectorized)."""
        data = self.matrix.data
        np.add(data[WORDS_SENT], data[WORDS_RECEIVED], out=data[ROUND_START_WORDS])

    def max_round_delta(self) -> int:
        """Maximum words any rank moved since the last :meth:`mark_round_start`."""
        if not self.p:
            return 0
        return int((self._total_words_per_rank() - self.matrix.data[ROUND_START_WORDS]).max())

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
        handles ranks that appear several times).  ``words`` may be a scalar
        (every transfer moves the same payload) or a per-transfer sequence.
        """
        srcs = np.asarray(srcs, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        if srcs.size == 0:
            return
        data = self.matrix.data
        _scatter_add(data[WORDS_SENT], srcs, words)
        _scatter_add(data[WORDS_RECEIVED], dsts, words)
        _scatter_add(data[MESSAGES_SENT], srcs, 1)
        _scatter_add(data[MESSAGES_RECEIVED], dsts, 1)
        split = OUTPUT_WORDS if kind == "output" else INPUT_WORDS
        _scatter_add(data[split], srcs, words)
        _scatter_add(data[split], dsts, words)
        if count_rounds:
            _scatter_add(data[ROUNDS], srcs, 1)
            _scatter_add(data[ROUNDS], dsts, 1)

    def add_flops(self, ranks, amounts) -> None:
        """Batched flop accounting (reduction combines, local updates)."""
        _scatter_add(self.matrix.data[FLOPS], np.asarray(ranks, dtype=np.intp), amounts)

    def add_rounds(self, ranks: Iterable[int], amount: int = 1) -> None:
        """Advance the round counter of every rank in ``ranks`` by ``amount``."""
        if not isinstance(ranks, np.ndarray):
            ranks = list(ranks)
        _scatter_add(self.matrix.data[ROUNDS], np.asarray(ranks, dtype=np.intp), amount)

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        # Matrix-driven: every counter field is a row of the backing store by
        # construction, so newly added counters can never be silently missed.
        self.matrix.zero()

    def snapshot(self) -> "CommCounters":
        """Deep copy of the current counters (for before/after diffing)."""
        return CommCounters(matrix=self.matrix.copy())

