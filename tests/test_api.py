"""Tests for the top-level public API."""

import numpy as np
import pytest

import repro
from repro import (
    RunReport,
    lower_bound_sequential,
    multiply,
)


class TestMultiply:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((40, 24))
        b = rng.standard_normal((24, 32))
        result = multiply(a, b, processors=6, memory_words=4096)
        assert isinstance(result, RunReport)
        assert np.allclose(result.matrix, a @ b)

    def test_reports_grid_and_usage(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        result = multiply(a, b, processors=8, memory_words=4096)
        pm, pn, pk = result.grid
        assert pm * pn * pk == result.processors_used
        assert result.processors_used <= 8

    def test_communication_profile_consistent(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        result = multiply(a, b, processors=8, memory_words=2048)
        assert result.total_communicated_words >= 0
        assert result.mean_words_per_rank >= result.mean_received_per_rank
        assert result.rounds >= 1
        assert result.lower_bound_per_rank > 0
        # Memory-honest (every C block fits in S): Theorem 2 bounds the
        # busiest domain's I/O.
        assert result.optimality_ratio >= 1
        assert result.optimality_ratio == result.plan.domain_io_words / result.lower_bound_per_rank

    def test_single_processor_no_communication(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        result = multiply(a, b, processors=1, memory_words=4096)
        assert result.total_communicated_words == 0

    def test_rejects_bad_processor_count(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            multiply(a, b, processors=0, memory_words=1024)

    def test_rejects_bad_memory(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            multiply(a, b, processors=2, memory_words=-5)


class TestCostHelpers:
    def test_sequential_bound_formula(self):
        assert lower_bound_sequential(10, 10, 10, 25) == pytest.approx(2 * 1000 / 5 + 100)

    def test_exports(self):
        assert repro.__version__
        for name in ("multiply", "lower_bound_sequential", "lower_bound_parallel"):
            assert name in repro.__all__
