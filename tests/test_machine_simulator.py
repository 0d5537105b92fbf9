"""Tests for the distributed machine simulator and its counters."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.cosma import cosma_multiply
from repro.machine import counters as counters_module
from repro.machine.collectives import broadcast, reduce
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
from repro.machine.rma import rma_get
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

    def test_reset(self):
        counters = CommCounters.for_ranks(1)
        counters.data[WORDS_SENT, 0] = 10
        counters.log_tick(FLOPS, 0, 5)
        counters.reset()
        assert not _logged(counters)
        assert counters.total_words_sent == 0
        assert counters.total_flops == 0


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
        block = np.ones((3, 4))
        delivered = machine.send(0, 1, block)
        assert delivered.shape == (3, 4)
        data = machine.counters.data
        assert data[WORDS_SENT, 0] == 12
        assert data[WORDS_RECEIVED, 1] == 12
        assert data[MESSAGES_SENT, 0] == 1
        assert data[MESSAGES_RECEIVED, 1] == 1

    def test_send_to_self_is_free(self):
        machine = DistributedMachine(2)
        machine.send(0, 0, np.ones(10))
        assert machine.counters.total_words_sent == 0

    def test_send_returns_copy(self):
        machine = DistributedMachine(2)
        block = np.ones(4)
        delivered = machine.send(0, 1, block)
        delivered[0] = 99
        assert block[0] == 1.0

    def test_conservation(self):
        machine = DistributedMachine(3)
        machine.send(0, 1, np.ones(5))
        machine.send(1, 2, np.ones((2, 2)))
        assert machine.counters.conservation_ok()

    def test_kind_splits_input_output(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5), kind="input")
        machine.send(0, 1, np.ones(3), kind="output")
        assert machine.counters.data[INPUT_WORDS, 1] == 5
        assert machine.counters.data[OUTPUT_WORDS, 1] == 3

    def test_rounds_counted(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5))
        machine.send(0, 1, np.ones(5), count_round=False)
        assert machine.counters.data[ROUNDS, 0] == 1

    def test_local_multiply_counts_flops(self):
        machine = DistributedMachine(1)
        a = np.ones((2, 3))
        b = np.ones((3, 4))
        product = machine.local_multiply(0, a, b)
        assert product.shape == (2, 4)
        assert machine.counters.data[FLOPS, 0] == 2 * 2 * 3 * 4

    def test_local_multiply_accumulates(self):
        machine = DistributedMachine(1)
        acc = np.zeros((2, 2))
        machine.local_multiply(0, np.eye(2), np.eye(2), accumulate_into=acc)
        machine.local_multiply(0, np.eye(2), np.eye(2), accumulate_into=acc)
        assert np.allclose(acc, 2 * np.eye(2))

    def test_local_multiply_shape_mismatch(self):
        machine = DistributedMachine(1)
        with pytest.raises(ValueError):
            machine.local_multiply(0, np.ones((2, 3)), np.ones((4, 2)))

    def test_local_add(self):
        machine = DistributedMachine(1)
        target = np.zeros(3)
        machine.local_add(0, target, np.arange(3.0))
        assert np.allclose(target, [0, 1, 2])
        assert machine.counters.data[FLOPS, 0] == 3

    def test_store_and_resident_words(self):
        machine = DistributedMachine(1)
        machine.rank(0).put("A", np.ones((4, 4)))
        assert machine.rank(0).resident_words() == 16

    def test_check_memory_records_peak(self):
        machine = DistributedMachine(1, memory_words=100)
        machine.rank(0).put("A", np.ones(60))
        machine.check_memory()
        assert machine.peak_resident_words == 60

    def test_check_memory_enforces(self):
        machine = DistributedMachine(1, memory_words=10, enforce_memory=True)
        machine.rank(0).put("A", np.ones(20))
        with pytest.raises(LocalMemoryExceededError):
            machine.check_memory()

    def test_per_hop_counter_writes_check_the_rank(self):
        """A counter cell is written at the rank's column: a rank outside
        ``[0, p)`` raises instead of wrapping to another column, a free
        self-transfer included."""
        machine = DistributedMachine(2)
        with pytest.raises(IndexError):
            machine.local_multiply(2, np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(IndexError):
            machine.local_add(-1, np.zeros(2), np.ones(2))
        for rank in (2, -1):
            with pytest.raises(IndexError):
                machine.send(rank, rank, np.ones(3))
            with pytest.raises(IndexError):
                rma_get(machine, rank, rank, np.ones(3))
        assert not machine.counters.data.any()


class TestResidentLedger:
    """Residency is one int64 vector: batched posts and ``Rank.put`` share it."""

    def test_ranks_are_built_on_first_use(self):
        machine = DistributedMachine(4)
        machine.post_resident("A", slice(0, 4), 5)
        assert machine.check_memory() == 5
        assert machine._ranks is None
        assert machine.rank(3).resident_words() == 5
        assert machine.ranks is machine.ranks and len(machine.ranks) == 4

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
        machine.rank(1).put("A", np.ones(7))
        machine.post_resident("A", slice(0, 3), 5)  # a posted name is not a stored one
        machine.rank(1).put("A", np.ones(2))  # replaces the stored block only
        assert [rank.resident_words() for rank in machine.ranks] == [5, 7, 5]
        machine.rank(1).pop("A")
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
        serial = DistributedMachine(4)
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
        machine.send(0, 1, np.ones(5))
        counters = machine.counters
        assert isinstance(counters.total_words_sent, int)
        assert isinstance(counters.max_words_per_rank(), int)
        assert isinstance(counters.mean_words_per_rank(), float)
        assert isinstance(counters.max_messages_per_rank(), int)


def _logged(counters) -> int:
    """Integers in the counters' log of unapplied per-hop increments."""
    return len(counters._sends) + len(counters._ticks)


class TestCounterLog:
    """Per-hop primitives log their increments; reading ``data`` applies them."""

    def test_mixed_sequence_reads_the_hand_counted_matrix(self):
        machine = DistributedMachine(3)
        machine.send(0, 1, np.ones((2, 3)))
        machine.send(1, 2, np.ones(4), kind="output")
        machine.send(2, 0, np.ones(5), count_round=False)
        machine.local_multiply(1, np.ones((2, 3)), np.ones((3, 4)))
        machine.local_add(2, np.zeros(3), np.ones(3))
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

    @pytest.mark.parametrize("size", [None, 97])
    def test_every_read_sees_an_empty_log_that_stays_bounded(self, monkeypatch, size):
        """A p = 64 COSMA run per hop, at the log's own size and at one small
        enough to be reached many times; the matrix is the batched engine's."""
        if size is not None:
            monkeypatch.setattr(counters_module, "_LOG_SIZE", size)
        logged_after_call, logged_after_read = [], []
        data = CommCounters.data

        def tracked(method):
            def call(counters, *args):
                method(counters, *args)
                logged_after_call.append(_logged(counters))
            return call

        def read(counters):
            matrix = data.fget(counters)
            logged_after_read.append(_logged(counters))
            return matrix

        monkeypatch.setattr(CommCounters, "log_send", tracked(CommCounters.log_send))
        monkeypatch.setattr(CommCounters, "log_tick", tracked(CommCounters.log_tick))
        monkeypatch.setattr(CommCounters, "data", property(read, data.fset))
        rng = np.random.default_rng(0)
        a, b = rng.random((48, 96)), rng.random((96, 40))  # 24 rounds on (4, 4, 4)
        runs = {}
        for mode in ("legacy", "volume"):
            machine = DistributedMachine(64, memory_words=150, mode=mode)
            cosma_multiply(a, b, 64, 150, machine=machine)
            runs[mode] = machine.counters.data.tobytes()
        assert runs["legacy"] == runs["volume"]
        assert len(logged_after_call) > 2000
        assert max(logged_after_call) < counters_module._LOG_SIZE
        if size is not None:
            assert logged_after_call.count(0) > 10  # the size was reached
        assert logged_after_read and not any(logged_after_read)

    def test_a_bad_rank_changes_neither_the_matrix_nor_the_log(self):
        machine = DistributedMachine(3)
        machine.send(0, 1, np.ones(4))
        machine.local_add(2, np.zeros(2), np.ones(2))
        counters = machine.counters
        before = counters._data.copy(), list(counters._sends), list(counters._ticks)
        calls = (
            lambda: machine.send(0, 3, np.ones(4)),
            lambda: machine.send(-1, 0, np.ones(4)),
            lambda: machine.send(3, 3, np.ones(4)),
            lambda: machine.local_multiply(3, np.ones((1, 2)), np.ones((2, 1))),
            lambda: machine.local_add(-1, np.zeros(2), np.ones(2)),
            lambda: rma_get(machine, 5, 0, np.ones(4)),
            lambda: rma_get(machine, 0, -2, np.ones(4)),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()
        after = counters._data, counters._sends, counters._ticks
        assert after[0].tobytes() == before[0].tobytes()
        assert after[1:] == before[1:]
        assert counters.data[WORDS_SENT].tolist() == [4, 0, 0]
        assert counters.data[FLOPS].tolist() == [0, 0, 2]

    def test_copies_carry_the_applied_matrix(self):
        machine = DistributedMachine(3)
        machine.send(0, 2, np.ones(6), kind="output")
        machine.local_multiply(1, np.ones((2, 2)), np.ones((2, 2)))
        assert _logged(machine.counters)
        for clone in (copy.deepcopy(machine.counters),
                      pickle.loads(pickle.dumps(machine.counters))):
            assert clone.data.tobytes() == machine.counters.data.tobytes()
            assert clone.data is not machine.counters.data
        assert machine.counters.data[OUTPUT_WORDS].tolist() == [6, 0, 6]


class TestRoundClasses:
    """``round_classes`` / ``post_rounds``: write a run of equal rows once, add it times its rounds."""

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

    def test_each_run_is_posted_once_and_replayed_per_round(self):
        table = np.array([[9, 4], [9, 4], [9, 0], [9, 0], [9, 0], [9, 4]])
        posted = []

        def post_class(delta, row):
            posted.append(tuple(row))
            self._post(delta, row)

        classed = DistributedMachine(3, mode="volume")
        added = DistributedMachine(3, mode="volume")
        plain = DistributedMachine(3, mode="volume")
        runs, boundaries = [], []
        for rounds, delta in classed.round_classes(table, post_class):
            runs.append(list(rounds))
            classed.post_rounds(delta, rounds, boundaries.append)
            for _ in rounds:
                added.counters.data += delta.data
        for row in table:
            self._post(plain.counters, row)
        assert runs == [[0, 1], [2, 3, 4], [5]]
        assert posted == [(9, 4), (9, 0), (9, 4)]  # a row that comes back is a new run
        assert boundaries == list(range(6))
        assert classed.counters.data[OUTPUT_WORDS].any()
        assert classed.counters.data.tobytes() == added.counters.data.tobytes()
        assert classed.counters.data.tobytes() == plain.counters.data.tobytes()

    def test_traced_rounds_report_the_class_hops(self):
        """One span per round with the class's hops, words and flops; what was
        posted before the first round lands in the first span; the matrix is
        the untraced run's."""
        table = np.array([[9, 4], [9, 4], [9, 0]])

        def run():
            machine = DistributedMachine(3, mode="volume")
            machine.post_transfers([2], [0], 5)  # pre-loop activity (Cannon's skew)
            for rounds, delta in machine.round_classes(table, self._post):
                machine.post_rounds(delta, rounds, lambda _: machine.commit_round())
            return machine.counters.data.tobytes()

        with tracing() as tracer:
            traced = run()
        spans = [args for _n, _c, _s, _d, args, _t in tracer.spans("round")]
        assert [(a["hops"], a["words_posted"], a["flops"]) for a in spans] == [
            (3, 18, 130), (2, 13, 130), (1, 9, 90),
        ]
        assert traced == run()
