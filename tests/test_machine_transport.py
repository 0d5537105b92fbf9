"""Tests for the pluggable payload transports and the fast-path accounting."""

import numpy as np
import pytest

from repro.machine.collectives import broadcast
from repro.machine.counters import COUNTER_FIELDS, CommCounters, ConservationError
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import (
    MODES,
    PayloadPlane,
    ShapeToken,
    concat_payloads,
    make_transport,
    payload_shape,
    payload_words,
)


class TestShapeToken:
    def test_size_and_ndim(self):
        token = ShapeToken((3, 4))
        assert token.size == 12
        assert token.ndim == 2
        assert token.shape == (3, 4)

    def test_basic_slicing(self):
        token = ShapeToken((10, 8))
        assert token[2:5, 1:7].shape == (3, 6)
        assert token[:, 3].shape == (10,)
        assert token[0].shape == (8,)
        assert token[...].shape == (10, 8)
        assert token[..., 0:2].shape == (10, 2)

    def test_slice_clamps_like_numpy(self):
        token = ShapeToken((5,))
        assert token[3:99].shape == (2,)
        assert token[-2:].shape == (2,)

    def test_boolean_mask(self):
        token = ShapeToken((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, :3] = True
        assert token[mask].shape == (3,)

    def test_boolean_mask_preserves_row_structure(self):
        """A leading-axes mask keeps the trailing axes, exactly like numpy.

        Regression test: full-shape masks flatten to 1-D (numpy semantics),
        but a 1-D mask on a 2-D token used to be rejected -- and a silent
        flatten here would hand downstream code a block with the masked row
        structure stripped off.
        """
        token = ShapeToken((5, 7))
        row_mask = np.array([True, False, True, False, True])
        assert token[row_mask].shape == (3, 7)
        reference = np.zeros((5, 7))[row_mask]
        assert token[row_mask].shape == reference.shape
        cube = ShapeToken((4, 5, 6))
        plane_mask = np.zeros((4, 5), dtype=bool)
        plane_mask[0, :2] = True
        assert cube[plane_mask].shape == (2, 6)
        assert cube[plane_mask].shape == np.zeros((4, 5, 6))[plane_mask].shape

    def test_boolean_mask_shape_mismatch(self):
        with pytest.raises(IndexError):
            ShapeToken((4, 4))[np.ones((2, 2), dtype=bool)]
        # Leading-axes masks must match those axes exactly, like numpy.
        with pytest.raises(IndexError):
            ShapeToken((4, 4))[np.ones(3, dtype=bool)]
        # A mask with more axes than the token has is always an error.
        with pytest.raises(IndexError):
            ShapeToken((4,))[np.ones((4, 4), dtype=bool)]

    def test_setitem_checks_shapes(self):
        token = ShapeToken((6, 6))
        token[0:2, 0:3] = ShapeToken((2, 3))  # ok
        token[0:2, 0:3] = 1.0  # scalar ok
        token[0:2, 0:3] = ShapeToken((1, 3))  # broadcastable ok
        with pytest.raises(ValueError):
            token[0:2, 0:3] = ShapeToken((5, 5))

    def test_setitem_rejects_transposed_shape(self):
        # Same total size but incompatible shape must raise, exactly as the
        # numpy-backed modes would.
        token = ShapeToken((4, 6))
        with pytest.raises(ValueError):
            token[:, :] = ShapeToken((6, 4))

    def test_iadd_checks_shapes(self):
        token = ShapeToken((3, 3))
        token += ShapeToken((3, 3))
        token += 2.0
        with pytest.raises(ValueError):
            token += ShapeToken((2, 2))
        with pytest.raises(ValueError):
            token += ShapeToken((9, 1))  # same size, wrong shape

    def test_out_of_range_int_index(self):
        with pytest.raises(IndexError):
            ShapeToken((3,))[5]

    def test_concat(self):
        joined = concat_payloads([ShapeToken((3, 2)), ShapeToken((3, 5))], axis=1)
        assert joined.shape == (3, 7)
        with pytest.raises(ValueError):
            concat_payloads([ShapeToken((3, 2)), ShapeToken((4, 5))], axis=1)

    def test_concat_mixed_with_arrays_uses_shapes(self):
        joined = concat_payloads([np.ones((2, 3)), ShapeToken((2, 4))], axis=1)
        assert joined.shape == (2, 7)

    def test_payload_words(self):
        assert payload_words(ShapeToken((5, 5))) == 25
        assert payload_words(np.ones((5, 5))) == 25


class TestTransports:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_transport("warp")
        with pytest.raises(ValueError):
            DistributedMachine(2, mode="warp")

    def test_legacy_delivers_private_copy(self):
        machine = DistributedMachine(2, mode="legacy")
        block = np.ones(6)
        delivered = machine.send(0, 1, block)
        assert not np.shares_memory(delivered, block)
        delivered[0] = 99.0  # writable
        assert block[0] == 1.0

    def test_zerocopy_delivers_shared_readonly_view(self):
        machine = DistributedMachine(2, mode="zerocopy")
        block = np.ones(6)
        delivered = machine.send(0, 1, block)
        assert np.shares_memory(delivered, block)
        assert not delivered.flags.writeable
        with pytest.raises(ValueError):
            delivered[0] = 99.0

    def test_volume_delivers_token(self):
        machine = DistributedMachine(2, mode="volume")
        delivered = machine.send(0, 1, ShapeToken((3, 4)))
        assert isinstance(delivered, ShapeToken)
        assert delivered.shape == (3, 4)
        assert machine.rank(0).counters.words_sent == 12

    def test_volume_send_accepts_arrays_too(self):
        machine = DistributedMachine(2, mode="volume")
        delivered = machine.send(0, 1, np.ones((2, 5)))
        assert isinstance(delivered, ShapeToken)
        assert machine.rank(1).counters.words_received == 10

    def test_machine_zeros_matches_mode(self):
        assert isinstance(DistributedMachine(1, mode="legacy").zeros((2, 2)), np.ndarray)
        assert isinstance(DistributedMachine(1, mode="volume").zeros((2, 2)), ShapeToken)

    def test_zerocopy_broadcast_shares_root_buffer(self):
        machine = DistributedMachine(4, mode="zerocopy")
        block = np.arange(8.0)
        received = broadcast(machine, 0, [0, 1, 2, 3], block)
        for rank in (1, 2, 3):
            assert np.shares_memory(received[rank], block)
        # Broadcast volume is unchanged: each non-root receives once.
        assert machine.counters.total_words_received == 3 * 8

    def test_volume_local_multiply_counts_flops_only(self):
        machine = DistributedMachine(1, mode="volume")
        product = machine.local_multiply(0, ShapeToken((2, 3)), ShapeToken((3, 4)))
        assert product.shape == (2, 4)
        assert machine.rank(0).counters.flops == 2 * 2 * 3 * 4

    def test_volume_local_multiply_shape_mismatch(self):
        machine = DistributedMachine(1, mode="volume")
        with pytest.raises(ValueError):
            machine.local_multiply(0, ShapeToken((2, 3)), ShapeToken((4, 2)))

    def test_volume_local_add(self):
        machine = DistributedMachine(1, mode="volume")
        target = ShapeToken((3,))
        machine.local_add(0, target, ShapeToken((3,)))
        assert machine.rank(0).counters.flops == 3


class TestIncrementalAccounting:
    def test_resident_words_tracks_put_replace_pop(self):
        machine = DistributedMachine(1)
        rank = machine.rank(0)
        rank.put("A", np.ones((4, 4)))
        assert rank.resident_words() == 16
        rank.put("A", np.ones((2, 2)))  # replacement, not accumulation
        assert rank.resident_words() == 4
        rank.put("B", np.ones(10))
        assert rank.resident_words() == 14
        rank.pop("A")
        assert rank.resident_words() == 10

    def test_resident_words_with_tokens(self):
        machine = DistributedMachine(1, mode="volume")
        rank = machine.rank(0)
        rank.put("A", ShapeToken((8, 8)))
        assert rank.resident_words() == 64
        assert machine.check_memory() == 64

    def test_round_delta_tracking(self):
        machine = DistributedMachine(2)
        machine.send(0, 1, np.ones(5))
        machine.counters.mark_round_start()
        machine.send(0, 1, np.ones(7))
        assert machine.counters.max_round_delta() == 7
        machine.counters.mark_round_start()
        assert machine.counters.max_round_delta() == 0

    def test_reset_is_field_driven(self):
        counters = CommCounters.for_ranks(1)
        rank = counters.per_rank[0]
        for name in COUNTER_FIELDS:
            setattr(rank, name, 7)
        counters.reset()
        for name in COUNTER_FIELDS:
            assert getattr(rank, name) == 0, name

    def test_assert_conservation(self):
        counters = CommCounters.for_ranks(2)
        counters.assert_conservation()
        counters.per_rank[0].words_sent = 5
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
        assert plane.slots == 1
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
        machine.reset_counters()
        assert machine.planes == {}


class TestPlaneTransportFallback:
    """Unported algorithms must see exact zerocopy semantics in plane mode."""

    def test_deliveries_are_shared_readonly_views(self):
        machine = DistributedMachine(2, mode="plane")
        assert machine.transport.planar
        assert not machine.transport.counters_only
        block = np.ones((3, 3))
        delivered = machine.send(0, 1, block)
        assert np.shares_memory(delivered, block)
        assert not delivered.flags.writeable

    def test_collectives_run_per_hop(self):
        machine = DistributedMachine(4, mode="plane")
        received = broadcast(machine, 0, [0, 1, 2, 3], np.ones((2, 2)))
        assert set(received) == {0, 1, 2, 3}
        assert machine.counters.total_words_sent == 3 * 4  # binomial tree


def test_payload_words_reads_size_attribute_directly():
    array = np.ones((7, 3))
    assert payload_words(array) == 21
    assert payload_shape(array) == (7, 3)
    assert payload_words(ShapeToken((7, 3))) == 21
    # Plain sequences still take the asarray path.
    assert payload_words([[1.0, 2.0], [3.0, 4.0]]) == 4
    assert payload_shape([[1.0, 2.0], [3.0, 4.0]]) == (2, 2)


def test_modes_constant_matches_transports():
    assert MODES == ("legacy", "zerocopy", "plane", "volume")
    for mode in MODES:
        assert make_transport(mode).mode == mode
    # Only the plane transport advertises the stacked-array fast path, and
    # only the volume transport drops numerics.
    assert [make_transport(m).planar for m in MODES] == [False, False, True, False]
    assert [make_transport(m).counters_only for m in MODES] == [False, False, False, True]
