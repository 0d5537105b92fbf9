"""Tests for the top-level public API."""

import doctest

import numpy as np
import pytest

import repro
import repro.api
from repro import (
    RunReport,
    lower_bound_sequential,
    multiply,
)
from repro.experiments.harness import run_algorithm
from repro.machine.transport import ShapeToken


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

    @pytest.mark.parametrize("algorithm", ["COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"])
    def test_token_inputs_default_to_volume(self, rng, algorithm):
        """Shape tokens carry no values: without a mode they run in ``volume``
        and count what the same arrays count in ``plane``."""
        tokens = multiply(ShapeToken((32, 16)), ShapeToken((16, 24)), 4, 4096, algorithm=algorithm)
        arrays = multiply(rng.standard_normal((32, 16)), rng.standard_normal((16, 24)), 4, 4096,
                          algorithm=algorithm)
        assert (tokens.mode, tokens.matrix, tokens.verified) == ("volume", None, False)
        assert arrays.mode == "plane" and arrays.verified and arrays.correct
        assert tokens.mean_words_per_rank == arrays.mean_words_per_rank
        assert tokens.total_flops == arrays.total_flops

    def test_token_inputs_refuse_plane(self):
        with pytest.raises(ValueError, match='mode="volume"'):
            multiply(ShapeToken((32, 16)), ShapeToken((16, 24)), 4, 4096, mode="plane")

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


class TestDocstringExamples:
    @pytest.mark.parametrize("module", [repro, repro.api], ids=lambda module: module.__name__)
    def test_examples_run(self, module):
        failed, attempted = doctest.testmod(module)
        assert attempted > 0 and failed == 0


class TestOneRunResult:
    @pytest.mark.parametrize("mode", ["plane", "volume"])
    def test_multiply_reports_what_run_algorithm_reports(self, mode, rng):
        a, b = rng.standard_normal((32, 16)), rng.standard_normal((16, 24))
        report = multiply(a, b, 4, 4096, mode=mode)
        run = run_algorithm(report.algorithm, report.scenario, mode=mode)
        assert report == run and run.matrix is None
        assert (report.matrix is None) == (mode == "volume")
        assert run.plan == report.plan and run.grid == report.grid

    def test_total_words_is_the_machines_count(self, harness_machines):
        report = multiply(ShapeToken((16384, 16384)), ShapeToken((16384, 16384)), 18432, 101000)
        [machine] = harness_machines
        assert report.total_communicated_words == machine.counters.total_words_sent
