"""Tests for the payload representations (``plane`` arrays, ``volume`` shape
tokens) and the counter matrix.

The per-hop deliveries the retired ``legacy`` / ``zerocopy`` transports made
are the reference hop machine's now (``tests/oracle``); the tests of what a
delivery is stay here.
"""

import numpy as np
import pytest
from oracle import HopMachine

from repro.machine.counters import (
    COUNTER_FIELDS,
    FLOPS,
    WORDS_SENT,
    CommCounters,
    ConservationError,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, PayloadPlane, ShapeToken, make_transport


class TestShapeToken:
    def test_size_and_ndim(self):
        token = ShapeToken((3, 4))
        assert token.size == 12
        assert token.ndim == 2
        assert token.shape == (3, 4)

    def test_payload_words(self):
        """A token counts the words of an array of its shape."""
        assert ShapeToken((5, 5)).size == np.ones((5, 5)).size == 25
        assert ShapeToken((5, 5)).dtype == np.dtype(np.float64)  # one word per element


class TestTransports:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_transport("warp")
        with pytest.raises(ValueError):
            DistributedMachine(2, mode="warp")

    def test_legacy_delivers_private_copy(self):
        """The hop machine delivers a private, writable copy."""
        machine = HopMachine(2)
        block = np.ones(6)
        delivered = machine.send(0, 1, block)
        assert not np.shares_memory(delivered, block)
        delivered[0] = 99.0  # writable
        assert block[0] == 1.0

    def test_volume_delivers_token(self):
        machine = HopMachine(2)
        delivered = machine.send(0, 1, ShapeToken((3, 4)))
        assert isinstance(delivered, ShapeToken)
        assert delivered.shape == (3, 4)
        assert machine.counters.data[WORDS_SENT, 0] == 12

    def test_volume_local_add(self):
        machine = HopMachine(1)
        target = ShapeToken((3,))
        machine.add(0, target, ShapeToken((3,)))
        assert machine.counters.data[FLOPS, 0] == 3


class TestIncrementalAccounting:
    def test_resident_words_tracks_put_replace_pop(self):
        """A rank's resident words follow the blocks it stores on the hop
        machine, as the engines' posted names do on a machine."""
        machine = HopMachine(1)
        machine.put(0, "A", np.ones((4, 4)))
        assert machine.resident[0] == 16
        machine.put(0, "A", np.ones((2, 2)))  # replacement, not accumulation
        assert machine.resident[0] == 4
        machine.put(0, "B", np.ones(10))
        assert machine.resident[0] == 14
        posted = DistributedMachine(1)
        for name, words in (("A", 16), ("A", 4), ("B", 10)):
            posted.post_resident(name, slice(0, 1), words)
        assert posted.rank(0).resident_words() == 14

    def test_resident_words_with_tokens(self):
        machine = HopMachine(1)
        machine.put(0, "A", ShapeToken((8, 8)))
        assert machine.resident[0] == 64
        assert machine.check_memory() == 64

    def test_assert_conservation(self):
        counters = CommCounters.for_ranks(2)
        assert counters.data.shape == (len(COUNTER_FIELDS), 2)
        counters.assert_conservation()
        counters.data[WORDS_SENT, 0] = 5
        with pytest.raises(ConservationError):
            counters.assert_conservation()


class TestPayloadPlane:
    def test_reduce_slots_sums_sheets(self):
        plane = PayloadPlane("ops.C", shape=(3, 2, 2))
        plane.data[0] = 1.0
        plane.data[2] = 2.0
        assert np.array_equal(plane.reduce_slots(), np.full((2, 2), 3.0))

    def test_wrapping_existing_data(self):
        base = np.arange(12.0).reshape(1, 3, 4)
        plane = PayloadPlane("ops.B", data=base)
        assert plane.data.shape == (1, 3, 4)
        assert np.shares_memory(plane.data, base)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            PayloadPlane("x")
        with pytest.raises(ValueError):
            PayloadPlane("x", shape=(2, 2))  # sheets must be 2-D stacks

    def test_machine_plane_registry(self):
        machine = DistributedMachine(2, mode="plane")
        plane = machine.new_plane("C", (2, 3, 3))
        assert machine.planes["C"] is plane
        with pytest.raises(ValueError):
            machine.register_plane("C", plane)
        machine.clear_planes()
        assert machine.planes == {}


def test_modes_constant_matches_transports():
    assert MODES == ("plane", "volume")
    for mode in MODES:
        assert make_transport(mode).mode == mode
    # Only the volume transport drops numerics.
    assert [make_transport(m).counters_only for m in MODES] == [False, True]
    for retired in ("legacy", "zerocopy"):
        with pytest.raises(ValueError, match="unknown transport mode"):
            make_transport(retired)
