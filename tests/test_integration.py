"""Cross-module integration tests: the paper's headline claims at laptop scale."""

import pytest

from repro.baselines.costs import io_cost_25d, io_cost_2d, io_cost_carma
from repro.experiments.harness import DEFAULT_ALGORITHMS, run_scenario
from repro.experiments.perf_model import simulated_time
from repro.experiments.report import group_by_scenario, volume_series
from repro.pebbling.game import PebbleGame
from repro.pebbling.mmm_bounds import (
    parallel_io_lower_bound,
    sequential_io_lower_bound,
    sequential_optimality_ratio,
)
from repro.pebbling.mmm_cdag import build_mmm_cdag
from repro.pebbling.mmm_schedule import sequential_mmm_schedule
from repro.sequential import tiled_multiply
from repro.sweeps import run_campaign, spec_from_scenarios
from repro.workloads.scaling import Scenario, extra_memory_sweep, limited_memory_sweep
from repro.workloads.shapes import flat_shape, large_k_shape, square_shape


class TestSequentialOptimality:
    """Theorem 1 / Listing 1: the sequential schedule is near I/O optimal."""

    def test_measured_io_within_ratio_of_bound(self):
        m = n = k = 16
        s = 38
        schedule = sequential_mmm_schedule(m, n, k, s)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
        result = game.run(schedule.as_pebbling_moves())
        assert result.complete
        bound = sequential_io_lower_bound(m, n, k, s)
        # The schedule runs in S red pebbles; its I/O must be within a modest
        # constant of the bound at this small scale.
        assert result.io <= 2.0 * bound

    def test_optimality_ratio_improves_with_memory(self):
        # The paper: 0.03% above the bound for 10 MB of fast memory.
        assert sequential_optimality_ratio(64) > sequential_optimality_ratio(1 << 20)
        assert sequential_optimality_ratio(10 * 1024 * 1024 // 8) < 1.001

    def test_numeric_kernel_io_tracks_bound_across_memory_sizes(self, rng):
        m = n = k = 32
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        ratios = []
        for s in [32, 64, 128, 256]:
            run = tiled_multiply(a, b, memory_words=s)
            ratios.append(run.io / sequential_io_lower_bound(m, n, k, s))
        # The measured-to-bound ratio stays bounded and does not diverge.
        assert all(r < 2.5 for r in ratios)


class TestCommunicationComparison:
    """Figures 6-7 / Table 4: COSMA communicates the least in every regime."""

    @pytest.fixture(scope="class")
    def limited_runs(self, tmp_path_factory):
        scenarios = limited_memory_sweep("square", [4, 9, 16], memory_words=2048)
        spec = spec_from_scenarios(scenarios, algorithms=DEFAULT_ALGORITHMS, mode="legacy", seed=2)
        result = run_campaign(spec, store=tmp_path_factory.mktemp("store"))
        assert result.failed == 0
        return result.runs()

    def test_all_algorithms_correct_everywhere(self, limited_runs):
        assert all(run.correct for run in limited_runs)

    def test_cosma_minimizes_received_volume(self, limited_runs):
        grouped = group_by_scenario(limited_runs)
        for by_algo in grouped.values():
            cosma = by_algo["COSMA"].mean_received_per_rank
            best_other = min(
                run.mean_received_per_rank for name, run in by_algo.items() if name != "COSMA"
            )
            assert cosma <= best_other * 1.15

    def test_volume_series_have_all_core_counts(self, limited_runs):
        series = volume_series(limited_runs)
        for points in series.values():
            assert [p for p, _ in points] == [4, 9, 16]

    def test_extra_memory_favors_cosma_over_scalapack(self):
        scenarios = extra_memory_sweep("square", [16], memory_words=4096)
        runs = run_scenario(scenarios[0], algorithms=("COSMA", "ScaLAPACK"), seed=3)
        assert (
            runs["COSMA"].mean_received_per_rank
            <= runs["ScaLAPACK"].mean_received_per_rank * 1.05
        )

    def test_tall_skinny_cosma_beats_2d_substantially(self):
        """The largeK scenario is where 2D algorithms lose badly (Figure 7)."""
        shape = large_k_shape(8, 2048)
        scenario = Scenario(
            name="largeK-strong-p16", shape=shape, p=16, memory_words=1 << 15, regime="strong"
        )
        runs = run_scenario(scenario, algorithms=("COSMA", "ScaLAPACK"), seed=4)
        assert runs["COSMA"].mean_received_per_rank < runs["ScaLAPACK"].mean_received_per_rank / 1.5

    def test_flat_shape_all_correct(self):
        shape = flat_shape(96, 8)
        scenario = Scenario(
            name="flat-strong-p8", shape=shape, p=8, memory_words=1 << 15, regime="strong"
        )
        runs = run_scenario(scenario, seed=5)
        assert all(run.correct for run in runs.values())


class TestPerformanceModelOrdering:
    """Figures 8-11: the simulated-runtime ordering favours COSMA."""

    def test_cosma_fastest_or_close_in_simulated_time(self):
        from repro.machine.topology import MachineSpec

        scenario = Scenario(
            name="square-strong-p9",
            shape=square_shape(36),
            p=9,
            memory_words=2048,
            regime="strong",
        )
        runs = run_scenario(scenario, seed=6)
        # Use a bandwidth-dominated spec: at the simulator's small matrix sizes
        # the per-message latency term would otherwise swamp the volume term
        # that dominates at the paper's scale.
        spec = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)
        times = {name: simulated_time(run, spec, overlap=True) for name, run in runs.items()}
        assert times["COSMA"] <= min(times.values()) * 1.2


class TestAnalyticVsMeasured:
    """The analytic Table 3 model and the simulator agree on who wins."""

    def test_ordering_consistency_limited_memory(self):
        m = n = k = 48
        p = 16
        s = 2 * (m * n + m * k + n * k) // p
        analytic = {
            "COSMA": parallel_io_lower_bound(m, n, k, p, s),
            "ScaLAPACK": io_cost_2d(m, n, k, p),
            "CTF": io_cost_25d(m, n, k, p, s),
            "CARMA": io_cost_carma(m, n, k, p, s),
        }
        scenario = Scenario(
            name="square-analytic-check",
            shape=square_shape(m),
            p=p,
            memory_words=s,
            regime="limited",
        )
        runs = run_scenario(scenario, seed=7)
        measured = {name: run.mean_received_per_rank for name, run in runs.items()}
        # The analytically-best algorithm (COSMA) is also the measured best.
        assert min(analytic, key=analytic.get) == "COSMA"
        assert measured["COSMA"] <= min(measured.values()) * 1.05
