"""Tests for the COSMA engine, run on the decomposition ``build_decomposition``
fits (or on an explicit grid)."""

import numpy as np
import pytest

from repro.algorithms import cosma_idle_fraction, get_algorithm
from repro.api import plan
from repro.core.cosma import cosma_run, received_words
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.counters import FLOPS, INPUT_WORDS, OUTPUT_WORDS, WORDS_RECEIVED
from repro.machine.simulator import DistributedMachine
from repro.obs import tracing
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape


def _cosma(a, b, p, memory_words, max_idle_fraction=0.03, grid=None, use_rma=False,
           machine=None):
    """COSMA's engine on ``a @ b``: the product, the decomposition it ran and
    the machine."""
    (m, k), n = a.shape, b.shape[1]
    decomposition = build_decomposition(m, n, k, p, memory_words, max_idle_fraction, grid)
    machine = machine or DistributedMachine(p, memory_words=memory_words)
    return cosma_run(machine, a, b, decomposition, use_rma), decomposition, machine


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 12])
    def test_matches_numpy_square(self, rng, p):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        product, _, _ = _cosma(a, b, p, 4096)
        assert np.allclose(product, a @ b)

    @pytest.mark.parametrize(
        "shape", [(16, 24, 8), (30, 10, 50), (7, 13, 11), (64, 4, 4), (4, 4, 64)]
    )
    def test_matches_numpy_rectangular(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        product, _, _ = _cosma(a, b, 6, 8192)
        assert np.allclose(product, a @ b)

    def test_matches_numpy_tiny_memory(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        # Memory just large enough for the local working set: forces many rounds.
        product, decomposition, _ = _cosma(a, b, 4, 200)
        assert np.allclose(product, a @ b)
        assert decomposition.num_steps > 1

    def test_explicit_grid(self, rng):
        a = rng.standard_normal((12, 18))
        b = rng.standard_normal((18, 12))
        product, decomposition, _ = _cosma(a, b, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        assert np.allclose(product, a @ b)
        assert decomposition.grid.as_tuple() == (2, 2, 2)

    def test_rma_backend_same_result_and_volume(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        two_sided, _, tree = _cosma(a, b, 8, 2048, use_rma=False)
        one_sided, _, gets = _cosma(a, b, 8, 2048, use_rma=True)
        assert np.allclose(two_sided, one_sided)
        assert tree.counters.total_words_sent == gets.counters.total_words_sent

    def test_dimension_mismatch_rejected(self, rng):
        """The registered runner checks the operands before it plans or runs."""
        scenario = Scenario(name="mismatch", shape=ProblemShape(m=4, n=4, k=3), p=2,
                            memory_words=1024, regime="limited")
        with pytest.raises(ValueError, match="inner dimensions do not match"):
            get_algorithm("COSMA").run(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)),
                                       scenario, DistributedMachine(2, memory_words=1024))


class TestCommunicationAccounting:
    def test_single_rank_no_communication(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        _, _, machine = _cosma(a, b, 1, 4096)
        assert machine.counters.total_words_sent == 0

    def test_conservation(self, rng):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        _, _, machine = _cosma(a, b, 8, 2048)
        assert machine.counters.conservation_ok()

    def test_volume_within_constant_of_lower_bound(self, rng):
        """A per-hop run receives what its plan says, rank for rank, and its
        busiest domain is within the factor of Theorem 2 that
        ``tests/test_theorem2_chain.py`` pins for cube p."""
        m = n = k = 48
        p, s = 8, 2048
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        _, decomposition, machine = _cosma(a, b, p, s, max_idle_fraction=cosma_idle_fraction(p))
        run_plan = plan(m, n, k, p, s)
        assert run_plan.grid == decomposition.grid.as_tuple()
        expected = np.zeros(p, dtype=np.int64)
        used = received_words(decomposition)
        expected[: len(used)] = used
        np.testing.assert_array_equal(machine.counters.data[WORDS_RECEIVED], expected)
        assert run_plan.predicted_words_per_rank == machine.counters.mean_received_per_rank()
        assert 1 <= run_plan.optimality_ratio <= 1.068

    def test_more_processors_less_volume_per_rank(self, rng):
        a = rng.standard_normal((48, 48))
        b = rng.standard_normal((48, 48))
        _, _, small = _cosma(a, b, 4, 1 << 16)
        _, _, large = _cosma(a, b, 16, 1 << 16)
        assert large.counters.mean_words_per_rank() < small.counters.mean_words_per_rank()

    def test_round_count_recorded(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        with tracing() as tracer:
            _, decomposition, _ = _cosma(a, b, 4, 300)
        spans = [args for _name, _cat, _start, _dur, args, _track in tracer.spans("round")]
        assert sum(span["multiplicity"] for span in spans
                   if span["label"] == "exchange-tree") == decomposition.num_steps
        assert decomposition.num_steps > 1

    def test_flops_balanced(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        _, _, machine = _cosma(a, b, 8, 1 << 16)
        flops = [f for f in machine.counters.data[FLOPS].tolist() if f > 0]
        assert max(flops) <= 2 * min(flops)

    def test_total_flops_at_least_2mnk(self, rng):
        m = n = k = 24
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        _, _, machine = _cosma(a, b, 6, 1 << 16)
        assert machine.counters.total_flops >= 2 * m * n * k

    def test_reuses_supplied_machine(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        machine = DistributedMachine(4, memory_words=4096)
        _cosma(a, b, 4, 4096, machine=machine)
        once = machine.counters.data.copy()
        _cosma(a, b, 4, 4096, machine=machine)
        assert once.any() and (machine.counters.data == 2 * once).all()

    def test_input_vs_output_attribution(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        _, _, machine = _cosma(a, b, 8, 512, grid=ProcessorGrid(2, 2, 2))
        total_in = int(machine.counters.data[INPUT_WORDS].sum())
        total_out = int(machine.counters.data[OUTPUT_WORDS].sum())
        assert total_in > 0
        # With pk = 2 the C reduction must appear as output traffic.
        assert total_out > 0


class TestGridSelection:
    def test_flat_matrices_get_2d_grid(self, rng):
        a = rng.standard_normal((64, 4))
        b = rng.standard_normal((4, 64))
        assert build_decomposition(64, 64, 4, 16, 1 << 16).grid.pk == 1

    def test_tall_skinny_gets_k_parallelism(self, rng):
        a = rng.standard_normal((8, 512))
        b = rng.standard_normal((512, 8))
        product, decomposition, _ = _cosma(a, b, 16, 1 << 16)
        assert decomposition.grid.pk > 1
        assert np.allclose(product, a @ b)

    def test_unfavorable_processor_count_leaves_ranks_idle(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        product, decomposition, _ = _cosma(a, b, 13, 1 << 16)
        assert np.allclose(product, a @ b)
        assert decomposition.p_used <= 13
