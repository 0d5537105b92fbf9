"""Tests for the COSMA distributed executor."""

import numpy as np
import pytest

from repro.core.cosma import cosma_multiply
from repro.core.cost_model import cosma_io_cost
from repro.core.grid import ProcessorGrid
from repro.machine.counters import FLOPS, INPUT_WORDS, OUTPUT_WORDS
from repro.machine.simulator import DistributedMachine


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 12])
    def test_matches_numpy_square(self, rng, p):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        result = cosma_multiply(a, b, p, memory_words=4096)
        assert np.allclose(result.matrix, a @ b)

    @pytest.mark.parametrize(
        "shape", [(16, 24, 8), (30, 10, 50), (7, 13, 11), (64, 4, 4), (4, 4, 64)]
    )
    def test_matches_numpy_rectangular(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = cosma_multiply(a, b, 6, memory_words=8192)
        assert np.allclose(result.matrix, a @ b)

    def test_matches_numpy_tiny_memory(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        # Memory just large enough for the local working set: forces many rounds.
        result = cosma_multiply(a, b, 4, memory_words=200)
        assert np.allclose(result.matrix, a @ b)
        assert result.num_rounds > 1

    def test_explicit_grid(self, rng):
        a = rng.standard_normal((12, 18))
        b = rng.standard_normal((18, 12))
        result = cosma_multiply(a, b, 8, memory_words=4096, grid=ProcessorGrid(2, 2, 2))
        assert np.allclose(result.matrix, a @ b)
        assert result.grid.as_tuple() == (2, 2, 2)

    def test_rma_backend_same_result_and_volume(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        two_sided = cosma_multiply(a, b, 8, memory_words=2048, use_rma=False)
        one_sided = cosma_multiply(a, b, 8, memory_words=2048, use_rma=True)
        assert np.allclose(two_sided.matrix, one_sided.matrix)
        assert two_sided.counters.total_words_sent == one_sided.counters.total_words_sent

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cosma_multiply(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)), 2, 1024)


class TestCommunicationAccounting:
    def test_single_rank_no_communication(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        result = cosma_multiply(a, b, 1, memory_words=4096)
        assert result.counters.total_words_sent == 0

    def test_conservation(self, rng):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        result = cosma_multiply(a, b, 8, memory_words=2048)
        assert result.counters.conservation_ok()

    def test_volume_within_constant_of_lower_bound(self, rng):
        m = n = k = 48
        p, s = 8, 2048
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = cosma_multiply(a, b, p, memory_words=s)
        analytic = cosma_io_cost(m, n, k, p, s)
        measured = result.counters.mean_received_per_rank()
        # The measured per-rank received volume must not exceed the analytic
        # cost (the analytic cost also charges for locally-available data).
        assert measured <= analytic * 1.25

    def test_more_processors_less_volume_per_rank(self, rng):
        a = rng.standard_normal((48, 48))
        b = rng.standard_normal((48, 48))
        small = cosma_multiply(a, b, 4, memory_words=1 << 16)
        large = cosma_multiply(a, b, 16, memory_words=1 << 16)
        assert large.mean_words_per_rank < small.mean_words_per_rank

    def test_round_count_recorded(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        result = cosma_multiply(a, b, 4, memory_words=300)
        assert result.num_rounds == result.decomposition.num_steps > 1

    def test_flops_balanced(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        result = cosma_multiply(a, b, 8, memory_words=1 << 16)
        flops = [f for f in result.counters.data[FLOPS].tolist() if f > 0]
        assert max(flops) <= 2 * min(flops)

    def test_total_flops_at_least_2mnk(self, rng):
        m = n = k = 24
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        result = cosma_multiply(a, b, 6, memory_words=1 << 16)
        assert result.counters.total_flops >= 2 * m * n * k

    def test_reuses_supplied_machine(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        machine = DistributedMachine(4, memory_words=4096)
        result = cosma_multiply(a, b, 4, memory_words=4096, machine=machine)
        assert result.counters is machine.counters

    def test_input_vs_output_attribution(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        result = cosma_multiply(a, b, 8, memory_words=512, grid=ProcessorGrid(2, 2, 2))
        total_in = int(result.counters.data[INPUT_WORDS].sum())
        total_out = int(result.counters.data[OUTPUT_WORDS].sum())
        assert total_in > 0
        # With pk = 2 the C reduction must appear as output traffic.
        assert total_out > 0


class TestGridSelection:
    def test_flat_matrices_get_2d_grid(self, rng):
        a = rng.standard_normal((64, 4))
        b = rng.standard_normal((4, 64))
        result = cosma_multiply(a, b, 16, memory_words=1 << 16)
        assert result.grid.pk == 1

    def test_tall_skinny_gets_k_parallelism(self, rng):
        a = rng.standard_normal((8, 512))
        b = rng.standard_normal((512, 8))
        result = cosma_multiply(a, b, 16, memory_words=1 << 16)
        assert result.grid.pk > 1
        assert np.allclose(result.matrix, a @ b)

    def test_unfavorable_processor_count_leaves_ranks_idle(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        result = cosma_multiply(a, b, 13, memory_words=1 << 16)
        assert np.allclose(result.matrix, a @ b)
        assert result.decomposition.p_used <= 13
