"""Tests for the distributed machine simulator and its counters."""

import numpy as np
import pytest

from repro.machine.counters import ROUND_START_WORDS, CommCounters, RankCounters
from repro.machine.simulator import DistributedMachine, LocalMemoryExceededError
from repro.obs import tracing


class TestRankCounters:
    def test_total_words(self):
        counters = RankCounters(words_sent=5, words_received=7)
        assert counters.total_words == 12

    def test_copy_is_independent(self):
        counters = RankCounters(words_sent=5)
        clone = counters.copy()
        clone.words_sent = 100
        assert counters.words_sent == 5

    def test_dataclass_style_construction(self):
        # RankCounters predates the CounterMatrix and was a dataclass;
        # positional field order and duplicate rejection must survive.
        counters = RankCounters(5, 7)
        assert counters.words_sent == 5
        assert counters.words_received == 7
        with pytest.raises(TypeError):
            RankCounters(5, words_sent=1)
        with pytest.raises(TypeError):
            RankCounters(unknown_field=1)


class TestCommCounters:
    def test_for_ranks(self):
        counters = CommCounters.for_ranks(4)
        assert counters.p == 4
        assert counters.total_words_sent == 0

    def test_mean_and_max(self):
        counters = CommCounters.for_ranks(2)
        counters.per_rank[0].words_sent = 10
        counters.per_rank[1].words_received = 30
        assert counters.mean_words_per_rank() == 20.0
        assert counters.max_words_per_rank() == 30

    def test_megabytes_conversion(self):
        counters = CommCounters.for_ranks(1)
        counters.per_rank[0].words_sent = 1_000_000
        assert counters.mean_megabytes_per_rank(word_bytes=8) == pytest.approx(8.0)

    def test_reset(self):
        counters = CommCounters.for_ranks(1)
        counters.per_rank[0].words_sent = 10
        counters.reset()
        assert counters.total_words_sent == 0

    def test_snapshot_is_deep(self):
        counters = CommCounters.for_ranks(1)
        snap = counters.snapshot()
        counters.per_rank[0].words_sent = 99
        assert snap.per_rank[0].words_sent == 0


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
        assert machine.rank(0).counters.words_sent == 12
        assert machine.rank(1).counters.words_received == 12
        assert machine.rank(0).counters.messages_sent == 1
        assert machine.rank(1).counters.messages_received == 1

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
        assert machine.rank(1).counters.input_words == 5
        assert machine.rank(1).counters.output_words == 3

    def test_rounds_counted(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5))
        machine.send(0, 1, np.ones(5), count_round=False)
        assert machine.rank(0).counters.rounds == 1

    def test_local_multiply_counts_flops(self):
        machine = DistributedMachine(1)
        a = np.ones((2, 3))
        b = np.ones((3, 4))
        product = machine.local_multiply(0, a, b)
        assert product.shape == (2, 4)
        assert machine.rank(0).counters.flops == 2 * 2 * 3 * 4

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
        assert machine.rank(0).counters.flops == 3

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

    def test_check_memory_with_extra_words(self):
        machine = DistributedMachine(2, memory_words=100)
        machine.rank(0).put("A", np.ones(10))
        worst = machine.check_memory(extra_words={0: 50})
        assert worst == 60

    def test_reset_counters(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5))
        machine.reset_counters()
        assert machine.counters.total_words_sent == 0
        assert machine.peak_resident_words == 0


class TestResidentLedger:
    """Residency is one int64 vector: batched posts and ``Rank.put`` share it."""

    def test_ranks_are_built_on_first_use(self):
        machine = DistributedMachine(4)
        machine.post_resident("A", slice(0, 4), 5)
        assert machine.check_memory() == 5
        assert machine._ranks is None and machine.counters._per_rank is None
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

    def test_extra_words_do_not_enter_the_ledger(self):
        machine = DistributedMachine(3, memory_words=100)
        machine.post_resident("A", slice(0, 3), np.array([10, 30, 20]))
        assert machine.check_memory(extra_words={2: 15, 7: 1000}) == 35  # rank 7: not ours
        assert machine.check_memory() == 30
        assert machine.peak_resident_words == 35

    def test_reset_counters_clears_residency(self):
        machine = DistributedMachine(2)
        machine.rank(0).put("A", np.ones(6))
        machine.post_resident("B", slice(0, 2), 4)
        machine.check_memory()
        machine.reset_counters()
        assert machine.check_memory() == 0 and machine.peak_resident_words == 0
        assert not machine.rank(0).has("A")
        machine.post_resident("B", slice(0, 2), 4)  # a fresh post, not a replacement
        assert machine.check_memory() == 4


class TestBatchedCounterEngine:
    """post_transfers and the CounterMatrix must mirror per-send accounting."""

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
        assert [r.counters.copy() for r in batched.ranks] == [
            r.counters.copy() for r in serial.ranks
        ]

    def test_post_transfers_scalar_words(self):
        machine = DistributedMachine(3)
        machine.post_transfers([0, 0], [1, 2], 4)
        assert machine.rank(0).counters.words_sent == 8
        assert machine.rank(1).counters.words_received == 4
        assert machine.counters.conservation_ok()

    def test_counter_matrix_is_shared_with_ranks(self):
        machine = DistributedMachine(2)
        machine.rank(0).counters.flops += 9
        assert machine.counters.matrix.data[4, 0] == 9  # FLOPS row
        assert machine.counters.total_flops == 9

    def test_vectorized_aggregates_return_python_numbers(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5))
        counters = machine.counters
        assert isinstance(counters.total_words_sent, int)
        assert isinstance(counters.max_words_per_rank(), int)
        assert isinstance(counters.mean_words_per_rank(), float)
        assert isinstance(counters.max_messages_per_rank(), int)


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
        counters.add_flops([2], 10 * int(row.sum()))
        # No engine's class writes this row; it is multiplied like the other eight.
        counters.matrix.data[ROUND_START_WORDS, :2] += row

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
                added.counters.matrix.data += delta.matrix.data
        for row in table:
            self._post(plain.counters, row)
        assert runs == [[0, 1], [2, 3, 4], [5]]
        assert posted == [(9, 4), (9, 0), (9, 4)]  # a row that comes back is a new run
        assert boundaries == list(range(6))
        assert classed.counters.matrix.data[ROUND_START_WORDS].any()
        assert classed.counters.matrix.data.tobytes() == added.counters.matrix.data.tobytes()
        assert classed.counters.matrix.data.tobytes() == plain.counters.matrix.data.tobytes()

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
            return machine.counters.matrix.data.tobytes()

        with tracing() as tracer:
            traced = run()
        spans = [args for _n, _c, _s, _d, args, _t in tracer.spans("round")]
        assert [(a["hops"], a["words_posted"], a["flops"]) for a in spans] == [
            (3, 18, 130), (2, 13, 130), (1, 9, 90),
        ]
        assert traced == run()
