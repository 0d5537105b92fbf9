"""Tests for the tree-based collectives of the per-hop reference (``tests/oracle``).

The engines post whole collectives from the tree's fan-out
(:func:`repro.machine.tree.tree_fanout`); these hop-by-hop collectives are
what the parity suites hold them to, so they are pinned here against MPI's
volumes.
"""

import numpy as np
import pytest
from oracle import HopMachine
from oracle.collectives import allgather, broadcast, reduce, scatter

from repro.machine.counters import MESSAGES_SENT, WORDS_RECEIVED, WORDS_SENT
from repro.machine.transport import ShapeToken


@pytest.fixture
def machine():
    return HopMachine(8)


class TestBroadcast:
    def test_all_ranks_receive_payload(self, machine):
        block = np.arange(12.0).reshape(3, 4)
        received = broadcast(machine, 2, [2, 3, 4, 5], block)
        for rank in [2, 3, 4, 5]:
            assert np.allclose(received[rank], block)

    def test_received_volume_matches_mpi_bcast(self, machine):
        block = np.ones(10)
        broadcast(machine, 0, [0, 1, 2, 3], block)
        # Every non-root rank receives the payload exactly once.
        for rank in [1, 2, 3]:
            assert machine.counters.data[WORDS_RECEIVED, rank] == 10
        assert machine.counters.data[WORDS_RECEIVED, 0] == 0

    def test_total_volume(self, machine):
        broadcast(machine, 0, [0, 1, 2, 3, 4], np.ones(7))
        assert machine.counters.total_words_sent == 4 * 7

    def test_root_not_in_ranks_raises(self, machine):
        with pytest.raises(ValueError):
            broadcast(machine, 7, [0, 1, 2], np.ones(3))

    def test_single_rank_broadcast_is_free(self, machine):
        received = broadcast(machine, 3, [3], np.ones(5))
        assert np.allclose(received[3], 1.0)
        assert machine.counters.total_words_sent == 0

    def test_tree_spreads_sender_load(self, machine):
        # With a binomial tree over 8 ranks the root sends 3 messages, not 7.
        broadcast(machine, 0, list(range(8)), np.ones(4))
        assert machine.counters.data[MESSAGES_SENT, 0] == 3


class TestReduce:
    def test_sum_arrives_at_root(self, machine):
        blocks = {r: np.full(4, float(r)) for r in range(4)}
        total = reduce(machine, 0, [0, 1, 2, 3], blocks)
        assert np.allclose(total, 0 + 1 + 2 + 3)

    def test_each_nonroot_sends_once(self, machine):
        blocks = {r: np.ones(6) for r in range(4)}
        reduce(machine, 0, [0, 1, 2, 3], blocks)
        for rank in [1, 2, 3]:
            assert machine.counters.data[WORDS_SENT, rank] == 6

    def test_missing_block_raises(self, machine):
        with pytest.raises(ValueError):
            reduce(machine, 0, [0, 1], {0: np.ones(3)})

    def test_inputs_not_mutated(self, machine):
        blocks = {0: np.ones(3), 1: np.ones(3)}
        reduce(machine, 0, [0, 1], blocks)
        assert np.allclose(blocks[0], 1.0)

    def test_root_can_be_any_rank(self, machine):
        blocks = {r: np.full(2, 1.0) for r in [3, 5, 6]}
        total = reduce(machine, 5, [3, 5, 6], blocks)
        assert np.allclose(total, 3.0)


class TestAllgather:
    def test_everyone_has_everything_in_order(self, machine):
        ranks = [0, 1, 2, 3]
        blocks = {r: np.full(2, float(r)) for r in ranks}
        gathered = allgather(machine, ranks, blocks)
        for rank in ranks:
            for position, value in enumerate(gathered[rank]):
                assert np.allclose(value, float(ranks[position]))

    def test_received_volume(self, machine):
        ranks = [0, 1, 2, 3]
        blocks = {r: np.ones(5) for r in ranks}
        allgather(machine, ranks, blocks)
        for rank in ranks:
            assert machine.counters.data[WORDS_RECEIVED, rank] == 5 * (len(ranks) - 1)


class TestScatter:
    def test_pieces_delivered(self, machine):
        pieces = {r: np.full(3, float(r)) for r in range(4)}
        out = scatter(machine, 0, [0, 1, 2, 3], pieces)
        for rank in range(4):
            assert np.allclose(out[rank], float(rank))

    def test_missing_piece_raises(self, machine):
        with pytest.raises(ValueError):
            scatter(machine, 0, [0, 1], {0: np.ones(2)})

    def test_root_piece_not_counted(self, machine):
        pieces = {0: np.ones(4), 1: np.ones(4)}
        scatter(machine, 0, [0, 1], pieces)
        assert machine.counters.data[WORDS_RECEIVED, 0] == 0
        assert machine.counters.data[WORDS_RECEIVED, 1] == 4


# Each collective over ranks 1..6 of an 8-rank machine (root 3 where there is
# one), called with one payload per rank built by ``make(shape)``.
_COLLECTIVES = {
    "broadcast": lambda m, make: broadcast(m, 3, range(1, 7), make((3, 4))),
    "reduce": lambda m, make: reduce(m, 3, range(1, 7), {r: make((3, 4)) for r in range(1, 7)}),
    "allgather": lambda m, make: allgather(m, range(1, 7), {r: make((r, 2)) for r in range(1, 7)}),
    "scatter": lambda m, make: scatter(m, 3, range(1, 7), {r: make((r, 3)) for r in range(1, 7)}),
}


def _payloads(result):
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, list):
        return [leaf for item in result for leaf in _payloads(item)]
    return [result]


@pytest.mark.parametrize("name", sorted(_COLLECTIVES))
def test_volume_tokens_count_exactly_like_legacy_arrays(name):
    """A collective on shape tokens counts exactly what it counts on arrays,
    byte for byte: every hop reads a payload's size, never its values."""
    legacy = HopMachine(8)
    _COLLECTIVES[name](legacy, np.ones)
    volume = HopMachine(8)
    result = _COLLECTIVES[name](volume, ShapeToken)
    assert volume.counters.data.tobytes() == legacy.counters.data.tobytes()
    assert volume.counters.total_words_sent > 0
    assert all(isinstance(payload, ShapeToken) for payload in _payloads(result))
