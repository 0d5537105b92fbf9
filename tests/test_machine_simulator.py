"""Tests for the distributed machine simulator and its counters.

The per-hop primitives (a send, a local multiply or add) belong to the
reference hop machine of ``tests/oracle`` now; the tests that pin their
accounting stay here, next to the counter matrix they reproduce.
"""

import copy
import pickle

import numpy as np
import pytest
from oracle import HopMachine
from oracle.collectives import broadcast, reduce, rma_get

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
from repro.machine.simulator import DistributedMachine, LocalMemoryExceededError
from repro.obs import tracing


class TestCommCounters:
    def test_for_ranks(self):
        counters = CommCounters.for_ranks(4)
        assert counters.p == 4
        assert counters.total_words_sent == 0

    def test_mean_and_max(self):
        counters = CommCounters.for_ranks(2)
        counters.data[WORDS_SENT, 0] = 10
        counters.data[WORDS_RECEIVED, 1] = 30
        assert counters.mean_words_per_rank() == 20.0
        assert counters.max_words_per_rank() == 30

    def test_megabytes_conversion(self):
        counters = CommCounters.for_ranks(1)
        counters.data[WORDS_SENT, 0] = 1_000_000
        assert counters.mean_megabytes_per_rank(word_bytes=8) == pytest.approx(8.0)


class TestDistributedMachine:
    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            DistributedMachine(0)

    def test_rank_bounds(self):
        machine = DistributedMachine(2)
        with pytest.raises(IndexError):
            machine.rank(2)

    def test_send_counts_words_and_messages(self):
        machine = DistributedMachine(2)
        machine.post_transfers([0], [1], 12)
        data = machine.counters.data
        assert data[WORDS_SENT, 0] == 12
        assert data[WORDS_RECEIVED, 1] == 12
        assert data[MESSAGES_SENT, 0] == 1
        assert data[MESSAGES_RECEIVED, 1] == 1

    def test_send_to_self_is_free(self):
        machine = HopMachine(2)
        machine.send(0, 0, np.ones(10))
        assert machine.counters.total_words_sent == 0

    def test_send_returns_copy(self):
        machine = HopMachine(2)
        block = np.ones(4)
        delivered = machine.send(0, 1, block)
        delivered[0] = 99
        assert block[0] == 1.0

    def test_conservation(self):
        machine = DistributedMachine(3)
        machine.post_transfers([0, 1], [1, 2], [5, 4])
        assert machine.counters.conservation_ok()

    def test_kind_splits_input_output(self):
        machine = DistributedMachine(2)
        machine.post_transfers([0], [1], 5, kind="input")
        machine.post_transfers([0], [1], 3, kind="output")
        assert machine.counters.data[INPUT_WORDS, 1] == 5
        assert machine.counters.data[OUTPUT_WORDS, 1] == 3

    def test_rounds_counted(self):
        """A transfer is a round at both ends, unless the caller (the per-hop
        reference's tests) counts rounds itself."""
        counters = CommCounters.for_ranks(2)
        counters.post_transfers([0], [1], 5)
        counters.post_transfers([0], [1], 5, count_rounds=False)
        assert counters.data[ROUNDS].tolist() == [1, 1]

    def test_local_multiply_counts_flops(self):
        machine = HopMachine(1)
        a = np.ones((2, 3))
        b = np.ones((3, 4))
        product = machine.multiply(0, a, b)
        assert product.shape == (2, 4)
        assert machine.counters.data[FLOPS, 0] == 2 * 2 * 3 * 4

    def test_local_multiply_accumulates(self):
        machine = HopMachine(1)
        acc = np.zeros((2, 2))
        machine.multiply(0, np.eye(2), np.eye(2), accumulate_into=acc)
        machine.multiply(0, np.eye(2), np.eye(2), accumulate_into=acc)
        assert np.allclose(acc, 2 * np.eye(2))

    def test_local_multiply_shape_mismatch(self):
        machine = HopMachine(1)
        with pytest.raises(ValueError):
            machine.multiply(0, np.ones((2, 3)), np.ones((4, 2)))

    def test_local_add(self):
        machine = HopMachine(1)
        target = np.zeros(3)
        machine.add(0, target, np.arange(3.0))
        assert np.allclose(target, [0, 1, 2])
        assert machine.counters.data[FLOPS, 0] == 3

    def test_store_and_resident_words(self):
        machine = DistributedMachine(1)
        machine.post_resident("A", slice(0, 1), 16)
        assert machine.rank(0).resident_words() == 16

    def test_check_memory_records_peak(self):
        machine = DistributedMachine(1, memory_words=100)
        machine.post_resident("A", slice(0, 1), 60)
        machine.check_memory()
        assert machine.peak_resident_words == 60

    def test_check_memory_enforces(self):
        machine = DistributedMachine(1, memory_words=10, enforce_memory=True)
        machine.post_resident("A", slice(0, 1), 20)
        with pytest.raises(LocalMemoryExceededError):
            machine.check_memory()

    def test_per_hop_counter_writes_check_the_rank(self):
        """A counter cell is written at the rank's column: on the hop machine a
        rank outside ``[0, p)`` raises instead of wrapping to another column,
        a free self-transfer included."""
        machine = HopMachine(2)
        with pytest.raises(IndexError):
            machine.multiply(2, np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(IndexError):
            machine.add(-1, np.zeros(2), np.ones(2))
        for rank in (2, -1):
            with pytest.raises(IndexError):
                machine.send(rank, rank, np.ones(3))
            with pytest.raises(IndexError):
                rma_get(machine, rank, rank, np.ones(3))
        assert not machine.counters.data.any()


class TestResidentLedger:
    """Residency is one int64 vector: every posted name adds to it, and a rank
    is a view of its entry."""

    def test_ranks_are_built_on_first_use(self):
        """A rank is built only when asked for, as a view of the vector."""
        machine = DistributedMachine(4)
        machine.post_resident("A", slice(0, 4), 5)
        assert machine.check_memory() == 5
        assert machine.rank(3).resident_words() == 5
        machine.post_resident("A", slice(3, 4), 6)
        assert machine.rank(3).resident_words() == 6

    def test_posting_a_name_again_replaces_it(self):
        """What a second run on the same machine does to its same-named blocks."""
        machine = DistributedMachine(4)
        machine.post_resident("A", np.array([0, 2]), np.array([10, 20]))
        machine.post_resident("B", slice(0, 4), 1)
        machine.post_resident("A", slice(0, 4), np.array([3, 3, 3, 3]))
        assert [machine.rank(r).resident_words() for r in range(4)] == [4, 4, 4, 4]
        machine.post_resident("A", slice(0, 4, 2), 0)
        assert machine.check_memory() == 4
        assert machine.rank(0).resident_words() == 1

    def test_put_and_post_report_the_sum(self):
        machine = DistributedMachine(3)
        machine.post_resident("B", np.array([1]), 7)
        machine.post_resident("A", slice(0, 3), 5)  # another name adds to it
        machine.post_resident("B", np.array([1]), 2)  # replaces B only
        assert [machine.rank(r).resident_words() for r in range(3)] == [5, 7, 5]
        machine.post_resident("B", np.array([1]), 0)
        assert machine.check_memory() == 5
        assert machine.peak_resident_words == 5

    def test_error_names_the_first_rank_at_the_maximum(self):
        machine = DistributedMachine(5, memory_words=10, enforce_memory=True)
        machine.post_resident("A", slice(0, 5), np.array([3, 12, 9, 12, 0]))
        with pytest.raises(LocalMemoryExceededError) as excinfo:
            machine.check_memory()
        assert str(excinfo.value) == (
            "rank 1 holds 12 words which exceeds the local memory S=10"
        )
        assert machine.peak_resident_words == 12  # recorded before it raises



class TestBatchedCounterEngine:
    """post_transfers and the counter matrix must mirror per-send accounting."""

    def test_post_transfers_matches_sequential_sends(self):
        batched = DistributedMachine(4)
        serial = HopMachine(4)
        pairs = [(0, 1, 5), (0, 2, 7), (1, 3, 5), (0, 1, 2)]
        for src, dst, words in pairs:
            serial.send(src, dst, np.ones(words), kind="output")
        batched.post_transfers(
            [s for s, _, _ in pairs], [d for _, d, _ in pairs],
            [w for _, _, w in pairs], kind="output",
        )
        assert batched.counters.data.tobytes() == serial.counters.data.tobytes()

    def test_post_transfers_scalar_words(self):
        machine = DistributedMachine(3)
        machine.post_transfers([0, 0], [1, 2], 4)
        assert machine.counters.data[WORDS_SENT, 0] == 8
        assert machine.counters.data[WORDS_RECEIVED, 1] == 4
        assert machine.counters.conservation_ok()

    def test_vectorized_aggregates_return_python_numbers(self):
        machine = DistributedMachine(2)
        machine.post_transfers([0], [1], 5)
        counters = machine.counters
        assert isinstance(counters.total_words_sent, int)
        assert isinstance(counters.max_words_per_rank(), int)
        assert isinstance(counters.mean_words_per_rank(), float)
        assert isinstance(counters.max_messages_per_rank(), int)


class TestCounterLog:
    """The hop machine's counts, against a matrix counted by hand: a per-hop
    primitive writes exactly its cells, and a bad rank writes none."""

    def test_mixed_sequence_reads_the_hand_counted_matrix(self):
        machine = HopMachine(3)
        machine.send(0, 1, np.ones((2, 3)))
        machine.send(1, 2, np.ones(4), kind="output")
        machine.send(2, 0, np.ones(5), count_round=False)
        machine.multiply(1, np.ones((2, 3)), np.ones((3, 4)))
        machine.add(2, np.zeros(3), np.ones(3))
        # Rows: words sent / received, messages sent / received, flops,
        # rounds, input words, output words; one column per rank.
        assert machine.counters.data.tolist() == [
            [6, 4, 5], [5, 6, 4], [1, 1, 1], [1, 1, 1],
            [0, 48, 3], [1, 2, 1], [11, 6, 5], [0, 4, 4],
        ]
        broadcast(machine, 0, [0, 1, 2], np.ones(2))  # hops 0 -> 1, 0 -> 2
        reduce(machine, 2, [0, 1, 2], {r: np.ones(3) for r in range(3)})  # 1 -> 2, 0 -> 2
        rma_get(machine, 0, 1, np.ones(7))  # 1 -> 0, the round on 0 only
        assert machine.counters.data.tolist() == [
            [13, 14, 5], [12, 8, 12], [4, 3, 1], [2, 2, 4],
            [0, 48, 9], [5, 4, 4], [22, 15, 7], [3, 7, 10],
        ]

    def test_a_bad_rank_changes_neither_the_matrix_nor_the_log(self):
        machine = HopMachine(3)
        machine.send(0, 1, np.ones(4))
        machine.add(2, np.zeros(2), np.ones(2))
        before = machine.counters.data.tobytes()
        calls = (
            lambda: machine.send(0, 3, np.ones(4)),
            lambda: machine.send(-1, 0, np.ones(4)),
            lambda: machine.send(3, 3, np.ones(4)),
            lambda: machine.multiply(3, np.ones((1, 2)), np.ones((2, 1))),
            lambda: machine.add(-1, np.zeros(2), np.ones(2)),
            lambda: rma_get(machine, 5, 0, np.ones(4)),
            lambda: rma_get(machine, 0, -2, np.ones(4)),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()
        assert machine.counters.data.tobytes() == before
        assert machine.counters.data[WORDS_SENT].tolist() == [4, 0, 0]
        assert machine.counters.data[FLOPS].tolist() == [0, 0, 2]

    def test_copies_carry_the_applied_matrix(self):
        machine = DistributedMachine(3)
        machine.post_transfers([0], [2], 6, kind="output")
        machine.counters.data[FLOPS, 1] += 16
        for clone in (copy.deepcopy(machine.counters),
                      pickle.loads(pickle.dumps(machine.counters))):
            assert clone.data.tobytes() == machine.counters.data.tobytes()
            assert clone.data is not machine.counters.data
        assert machine.counters.data[OUTPUT_WORDS].tolist() == [6, 0, 6]


class TestRoundClasses:
    """``post_delta``: a closed-form delta added once; traced, one span per
    round class it is the sum of."""

    @staticmethod
    def _post(counters, row):
        # Row = (words 0 -> 1, words 1 -> 2); a zero entry posts nothing.
        pairs = [(src, src + 1, int(words)) for src, words in enumerate(row) if words]
        counters.post_transfers(
            [src for src, _, _ in pairs], [dst for _, dst, _ in pairs],
            [words for _, _, words in pairs],
        )
        counters.data[FLOPS, 2] += 10 * int(row.sum())
        # A row the transfers above leave alone; it is multiplied like the others.
        counters.data[OUTPUT_WORDS, :2] += row

    def _classes(self, table, starts):
        """Hand-built classes of ``table``: for each start, the rounds to the
        next start and one round's delta."""
        for first, stop in zip(starts, [*starts[1:], len(table)]):
            delta = CommCounters.for_ranks(3)
            self._post(delta, table[first])
            yield range(first, stop), delta.data

    def _summed(self, table, starts):
        return sum(len(rounds) * delta for rounds, delta in self._classes(table, starts))

    def test_each_run_is_posted_once_and_replayed_per_round(self):
        """The sum of the classes, posted once, is every round posted one by
        one; a delta of fewer columns than ranks lands on the first ranks."""
        table = np.array([[9, 4], [9, 4], [9, 0], [9, 0], [9, 0], [9, 4]])
        classed = DistributedMachine(3, mode="volume")
        plain = DistributedMachine(3, mode="volume")
        classed.post_delta("rounds", self._summed(table, [0, 2, 5]),
                           classes=self._classes(table, [0, 2, 5]))
        for row in table:
            self._post(plain.counters, row)
        assert classed.counters.data[OUTPUT_WORDS].any()
        assert classed.counters.data.tobytes() == plain.counters.data.tobytes()
        wide = DistributedMachine(5, mode="volume")
        wide.post_delta("rounds", self._summed(table, [0, 2, 5]))
        assert wide.counters.data[:, :3].tobytes() == plain.counters.data.tobytes()
        assert not wide.counters.data[:, 3:].any()

    def test_traced_rounds_report_the_class_hops(self):
        """One span per posting call and per class, with the class's first
        round, multiplicity, hops, words and flops; the matrix is the
        untraced run's."""
        table = np.array([[9, 4], [9, 4], [9, 0]])

        def run():
            machine = DistributedMachine(3, mode="volume")
            machine.post_transfers([2], [0], 5, label="before")  # Cannon's skew, say
            machine.post_delta("rounds", self._summed(table, [0, 2]),
                               classes=self._classes(table, [0, 2]))
            return machine.counters.data.tobytes()

        with tracing() as tracer:
            traced = run()
        spans = [args for _n, _c, _s, _d, args, _t in tracer.spans("round")]
        assert [(a["label"], a["first_round"], a["multiplicity"], a["hops"], a["words_posted"],
                 a["flops"]) for a in spans] == [
            ("before", 0, 1, 1, 5, 0), ("rounds", 1, 2, 2, 13, 130), ("rounds", 3, 1, 1, 9, 90),
        ]
        assert traced == run()
