"""Robustness and failure-injection tests across modules.

These tests exercise the error paths a downstream user is most likely to hit:
inconsistent shapes, impossible memory budgets, degenerate problem sizes, and
the memory-enforcement mode of the simulator.
"""

import numpy as np
import pytest

from repro import multiply
from repro.baselines.cannon import cannon_decomposition
from repro.baselines.summa import summa_decomposition
from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.machine.simulator import DistributedMachine, LocalMemoryExceededError
from repro.sequential import tiled_multiply


def _cosma(a, b, p, memory_words, machine=None):
    """COSMA's engine on the fitted decomposition of ``a @ b``: the product,
    the decomposition and the machine."""
    (m, k), n = a.shape, b.shape[1]
    decomposition = build_decomposition(m, n, k, p, memory_words)
    machine = machine or DistributedMachine(p, memory_words=memory_words)
    return cosma_run(machine, a, b, decomposition), decomposition, machine


class TestDegenerateShapes:
    """1-wide and 1-deep matrices must work in every algorithm."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 8, 4), (8, 1, 4), (8, 4, 1)])
    def test_cosma(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        product, _, _ = _cosma(a, b, 4, 4096)
        assert np.allclose(product, a @ b)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 8, 4), (8, 1, 4), (8, 4, 1)])
    def test_baselines(self, rng, shape):
        m, n, k = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        for algorithm in ("ScaLAPACK", "Cannon", "CARMA", "CTF"):
            report = multiply(a, b, 4, 4096, algorithm=algorithm)
            assert report.correct and np.allclose(report.matrix, a @ b), algorithm

    def test_sequential_one_element(self, rng):
        a = rng.standard_normal((1, 1))
        b = rng.standard_normal((1, 1))
        result = tiled_multiply(a, b, memory_words=8)
        assert np.allclose(result.matrix, a @ b)

    def test_more_processors_than_work(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        product, decomposition, _ = _cosma(a, b, 64, 4096)
        assert np.allclose(product, a @ b)
        assert decomposition.p_used <= 8


class TestMemoryEnforcement:
    def test_cosma_within_budget_passes_enforcement(self, rng):
        m = n = k = 32
        s = 4096
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        machine = DistributedMachine(8, memory_words=s, enforce_memory=True)
        product, _, _ = _cosma(a, b, 8, s, machine=machine)
        assert np.allclose(product, a @ b)
        assert machine.peak_resident_words <= s

    def test_enforcement_trips_when_budget_absurd(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        machine = DistributedMachine(2, memory_words=16, enforce_memory=True)
        with pytest.raises(LocalMemoryExceededError):
            _cosma(a, b, 2, 16, machine=machine)

    def test_peak_usage_reported_without_enforcement(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        machine = DistributedMachine(4, memory_words=1 << 20)
        _cosma(a, b, 4, 1 << 20, machine=machine)
        assert machine.peak_resident_words > 0


class TestInputValidation:
    def test_multiply_rejects_mismatched_inner_dims(self, rng):
        with pytest.raises(ValueError):
            multiply(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)), 2, 1024)

    def test_decomposition_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            build_decomposition(8, 8, 8, 4, 0)

    def test_summa_rejects_zero_processors(self, rng):
        with pytest.raises(ValueError):
            summa_decomposition(4, 4, 4, 0, 1024)

    def test_cannon_rejects_zero_processors(self, rng):
        with pytest.raises(ValueError):
            cannon_decomposition(4, 4, 4, 0, 1024)


class TestDeterminism:
    def test_cosma_volume_is_deterministic(self, rng):
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        _, first_decomposition, first = _cosma(a, b, 6, 2048)
        _, second_decomposition, second = _cosma(a, b, 6, 2048)
        assert first.counters.total_words_sent == second.counters.total_words_sent
        assert first_decomposition.grid.as_tuple() == second_decomposition.grid.as_tuple()

    def test_harness_runs_are_reproducible(self):
        from repro.experiments.harness import run_algorithm
        from repro.workloads.scaling import Scenario
        from repro.workloads.shapes import square_shape

        scenario = Scenario("det", square_shape(24), 4, 2048, "strong")
        run1 = run_algorithm("COSMA", scenario, seed=7)
        run2 = run_algorithm("COSMA", scenario, seed=7)
        assert run1.mean_words_per_rank == run2.mean_words_per_rank
        assert run1.total_flops == run2.total_flops
