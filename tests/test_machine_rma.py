"""Tests for the one-sided (RMA) get of the per-hop reference (``tests/oracle``).

COSMA's ``use_rma`` exchange (section 7.4) charges a get's round to its
origin only; the engine posts that in closed form, and this get is the hop
it is held to.
"""

import numpy as np
import pytest
from oracle import HopMachine
from oracle.collectives import rma_get

from repro.machine.counters import ROUNDS, WORDS_RECEIVED, WORDS_SENT


@pytest.fixture
def machine():
    return HopMachine(4)


class TestRmaGet:
    def test_data_flows_target_to_origin(self, machine):
        block = np.arange(6.0)
        out = rma_get(machine, origin=0, target=1, block=block)
        assert np.allclose(out, block)
        assert machine.counters.data[WORDS_SENT, 1] == 6
        assert machine.counters.data[WORDS_RECEIVED, 0] == 6

    def test_only_origin_round_advances(self, machine):
        rma_get(machine, origin=0, target=1, block=np.ones(4))
        assert machine.counters.data[ROUNDS, 0] == 1
        assert machine.counters.data[ROUNDS, 1] == 0

    def test_self_get_is_free(self, machine):
        out = rma_get(machine, origin=2, target=2, block=np.ones(3))
        assert np.allclose(out, 1.0)
        assert machine.counters.total_words_sent == 0

