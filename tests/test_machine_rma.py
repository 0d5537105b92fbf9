"""Tests for one-sided (RMA) communication primitives."""

import numpy as np
import pytest

from repro.machine.rma import rma_get
from repro.machine.simulator import DistributedMachine


@pytest.fixture
def machine():
    return DistributedMachine(4, memory_words=1 << 16)


class TestRmaGet:
    def test_data_flows_target_to_origin(self, machine):
        block = np.arange(6.0)
        out = rma_get(machine, origin=0, target=1, block=block)
        assert np.allclose(out, block)
        assert machine.rank(1).counters.words_sent == 6
        assert machine.rank(0).counters.words_received == 6

    def test_only_origin_round_advances(self, machine):
        rma_get(machine, origin=0, target=1, block=np.ones(4))
        assert machine.rank(0).counters.rounds == 1
        assert machine.rank(1).counters.rounds == 0

    def test_self_get_is_free(self, machine):
        out = rma_get(machine, origin=2, target=2, block=np.ones(3))
        assert np.allclose(out, 1.0)
        assert machine.counters.total_words_sent == 0

