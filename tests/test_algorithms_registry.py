"""Tests for the algorithm registry (specs, plans, registration)."""

import numpy as np
import pytest

from repro.algorithms import (
    DEFAULT_ALGORITHMS,
    AlgorithmSpec,
    InfeasiblePlan,
    Plan,
    UnknownAlgorithmError,
    algorithm_choices,
    cosma_idle_fraction,
    get_algorithm,
    register,
    register_algorithm,
    registered_algorithms,
    resolve_algorithm,
    unregister,
)
from repro.api import multiply, plan
from repro.experiments.harness import RunFailure, run_algorithm, run_algorithm_safe
from repro.machine import ShapeToken
from repro.workloads.scaling import Scenario, limited_memory_sweep
from repro.workloads.shapes import ProblemShape, square_shape

CORE_FIVE = ("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon")


@pytest.fixture
def scenario():
    return limited_memory_sweep("square", [9], 2048)[0]


#: 4096 x 4096 x 262144 on p = 18,432 with S = 101,000: p S is below the
#: footprint, so every built-in's plan is infeasible.
TALL_K = Scenario(name="tall-k", shape=ProblemShape(m=4096, n=4096, k=262144, family="largeK"),
                  p=18_432, memory_words=101_000, regime="limited")


@pytest.mark.parametrize("name", CORE_FIVE)
class TestInfeasiblePlan:
    """Every entry point that runs a scenario refuses one its plan calls
    infeasible, with the plan's reason, before it builds a machine."""

    def test_plan_is_infeasible(self, name):
        run_plan = get_algorithm(name).plan(TALL_K)
        assert not run_plan.feasible and "footprint" in run_plan.reason

    def test_run_algorithm_raises_the_reason(self, name):
        reason = get_algorithm(name).plan(TALL_K).reason
        for mode in ("volume", "plane"):  # plane: raised before any input exists
            with pytest.raises(InfeasiblePlan) as raised:
                run_algorithm(name, TALL_K, mode=mode)
            assert str(raised.value) == reason
            assert raised.value.plan is get_algorithm(name).plan(TALL_K)

    def test_safe_run_records_what_the_campaign_prunes(self, name):
        failure = run_algorithm_safe(name, TALL_K, mode="volume")
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "InfeasiblePlan"
        assert failure.error_message == get_algorithm(name).plan(TALL_K).reason

    def test_multiply_raises(self, name):
        shape = TALL_K.shape
        with pytest.raises(InfeasiblePlan, match="footprint"):
            multiply(ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n)),
                     TALL_K.p, TALL_K.memory_words, algorithm=name)


class TestRegistryContents:
    def test_core_five_registered_first(self):
        assert registered_algorithms()[:5] == CORE_FIVE

    def test_default_algorithms_flagged(self):
        assert DEFAULT_ALGORITHMS == ("COSMA", "ScaLAPACK", "CTF", "CARMA")

    def test_aliases_resolve_case_insensitively(self):
        assert resolve_algorithm("SUMMA") == "ScaLAPACK"
        assert resolve_algorithm("summa") == "ScaLAPACK"
        assert resolve_algorithm("2.5D") == "CTF"
        assert resolve_algorithm("cosma") == "COSMA"

    def test_unknown_name_raises_keyerror_subclass(self):
        with pytest.raises(UnknownAlgorithmError):
            get_algorithm("MAGMA")
        with pytest.raises(KeyError):
            resolve_algorithm("MAGMA")

    def test_choices_include_aliases(self):
        choices = algorithm_choices()
        assert {"COSMA", "SUMMA", "2D", "2.5D"} <= set(choices)

    def test_specs_carry_cost_models_and_modes(self):
        """Every built-in has a cost model, and every runner takes both modes:
        the registry keeps no per-algorithm mode flag."""
        for name in CORE_FIVE:
            spec = get_algorithm(name)
            assert spec.io_cost is not None
            assert not hasattr(spec, "modes")


class TestPlans:
    @pytest.mark.parametrize("name", CORE_FIVE)
    def test_plan_is_feasible_and_populated(self, name, scenario):
        run_plan = get_algorithm(name).plan(scenario)
        assert isinstance(run_plan, Plan)
        assert run_plan.feasible
        assert run_plan.grid is not None
        assert 1 <= run_plan.processors_used <= scenario.p
        assert run_plan.rounds >= 1
        assert run_plan.predicted_words_per_rank > 0
        assert run_plan.lower_bound_per_rank > 0
        # Memory-honest point (every C block fits in S): Theorem 2 bounds
        # the busiest domain's I/O.
        assert run_plan.optimality_ratio >= 1

    @pytest.mark.parametrize("name", CORE_FIVE)
    def test_plan_rejects_insufficient_aggregate_memory(self, name):
        bad = Scenario(name="bad", shape=square_shape(64), p=2,
                       memory_words=64, regime="limited")
        run_plan = get_algorithm(name).plan(bad)
        assert not run_plan.feasible
        assert "footprint" in run_plan.reason

    def test_cosma_plan_matches_executed_grid(self, rng):
        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((32, 40))
        report = multiply(a, b, processors=9, memory_words=4096)
        assert report.plan.grid == report.grid
        assert report.plan.processors_used == report.processors_used

    def test_api_plan_for_all_registered(self):
        for name in CORE_FIVE:
            run_plan = plan(64, 64, 64, processors=8, memory_words=4096, algorithm=name)
            assert run_plan.algorithm == name
            assert run_plan.feasible

    def test_cosma_idle_fraction_heuristic(self):
        assert cosma_idle_fraction(1) == 0.0
        assert cosma_idle_fraction(9) == pytest.approx(1.5 / 9)
        assert cosma_idle_fraction(1000) == pytest.approx(0.03)


class TestRegistration:
    def test_decorator_registers_runnable_algorithm(self, scenario):
        @register_algorithm("_tmp-echo", aliases=("_tmp-alias",),
                            io_cost=lambda m, n, k, p, s: 1.0)
        def echo(a, b, scenario, machine):
            return np.zeros((scenario.shape.m, scenario.shape.n))

        try:
            assert resolve_algorithm("_tmp-alias") == "_tmp-echo"
            run = run_algorithm("_tmp-echo", scenario, mode="volume")
            assert run.algorithm == "_tmp-echo"
            # The I/O formula is visible through the alias, as everywhere.
            assert get_algorithm("_tmp-alias").io_cost(1, 1, 1, 1, 1) == 1.0
        finally:
            unregister("_tmp-echo")

    def test_unregister_retracts_cost_model(self):
        @register_algorithm("_tmp-cost", io_cost=lambda m, n, k, p, s: 2.0)
        def costed(a, b, scenario, machine):
            return np.zeros((scenario.shape.m, scenario.shape.n))

        assert get_algorithm("_tmp-cost").io_cost(1, 1, 1, 1, 1) == 2.0
        unregister("_tmp-cost")
        # The formulas live on the spec: gone with the name, so the sweep
        # aggregator's lookup fails and its row carries no predicted columns.
        with pytest.raises(KeyError):
            get_algorithm("_tmp-cost")

    def test_duplicate_name_rejected_without_replace(self):
        spec = get_algorithm("COSMA")
        with pytest.raises(ValueError):
            register(spec)
        register(spec, replace=True)  # idempotent with replace

    def test_alias_collision_with_other_algorithm_rejected(self):
        with pytest.raises(ValueError):
            register(AlgorithmSpec(name="_tmp-thief", runner=lambda *a: None,
                                   aliases=("SUMMA",)))

    def test_extension_self_registers_on_import(self, scenario):
        import repro.extensions.allgather  # noqa: F401 - registers AllGather1D

        assert resolve_algorithm("naive-1D") == "AllGather1D"
        run = run_algorithm("AllGather1D", scenario, mode="volume")
        assert run.mean_words_per_rank > 0

    def test_extension_algorithm_verifies_numerically(self, rng):
        import repro.extensions.allgather  # noqa: F401

        a = rng.standard_normal((24, 16))
        b = rng.standard_normal((16, 20))
        report = multiply(a, b, processors=5, memory_words=8192,
                          algorithm="AllGather1D")
        assert report.correct
        assert np.allclose(report.matrix, a @ b)


class TestRunReportApi:
    @pytest.mark.parametrize("name", CORE_FIVE)
    def test_multiply_works_for_every_algorithm(self, name, rng):
        a = rng.standard_normal((32, 24))
        b = rng.standard_normal((24, 28))
        report = multiply(a, b, processors=4, memory_words=8192, algorithm=name)
        assert report.algorithm == name
        assert report.correct and report.verified
        assert np.allclose(report.matrix, a @ b)

    def test_multiply_accepts_aliases(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        report = multiply(a, b, processors=4, memory_words=4096, algorithm="SUMMA")
        assert report.algorithm == "ScaLAPACK"

    def test_volume_mode_returns_counters_without_matrix(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        plane = multiply(a, b, processors=4, memory_words=4096)
        volume = multiply(a, b, processors=4, memory_words=4096, mode="volume")
        assert plane.mode == "plane" and volume.mode == "volume"
        assert volume.matrix is None and not volume.verified
        assert volume.mean_words_per_rank == plane.mean_words_per_rank
        assert volume.rounds == plane.rounds

    def test_max_idle_fraction_rejected_for_non_cosma(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        with pytest.raises(ValueError):
            multiply(a, b, 4, 4096, 0.25, algorithm="CARMA")

    def test_old_positional_order_still_works(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        report = multiply(a, b, 4, 4096, 0.03)
        assert report.correct


class TestPlanMemoization:
    """AlgorithmSpec.plan is memoized per (algorithm, scenario, options)."""

    def test_repeated_plans_return_cached_object(self, scenario):
        spec = get_algorithm("COSMA")
        first = spec.plan(scenario)
        second = spec.plan(scenario)
        assert first is second  # same LRU entry, grid fitted once

    def test_option_values_key_the_cache(self, scenario):
        spec = get_algorithm("COSMA")
        default = spec.plan(scenario)
        loose = spec.plan(scenario, max_idle_fraction=0.5)
        assert loose is spec.plan(scenario, max_idle_fraction=0.5)
        assert default is spec.plan(scenario)
        assert loose is not default

    def test_reregistration_invalidates_cache(self, scenario):
        from repro.algorithms import plan_cache_clear

        spec = get_algorithm("COSMA")
        before = spec.plan(scenario)
        # Re-registering (even with identical metadata) must drop cached plans.
        register(spec, replace=True)
        after = get_algorithm("COSMA").plan(scenario)
        assert after == before
        assert after is not before
        plan_cache_clear()
        assert isinstance(get_algorithm("COSMA").plan(scenario), Plan)

    def test_cosma_runs_on_the_planned_grid_without_refitting(self, scenario, monkeypatch):
        """COSMA's runner takes its grid from the memoized plan: after
        ``spec.plan``, a run without ``grid=`` and with the same options (as
        ``repro.multiply`` and ``run_algorithm`` make it) fits no grid again.
        An infeasible plan has no grid, and the run raises its reason."""
        from repro.algorithms import plan_cache_clear
        from repro.core import decomposition
        from repro.machine.simulator import DistributedMachine

        fits = []
        fit_ranks = decomposition.fit_ranks

        def counting(*args, **kwargs):
            fits.append(args)
            return fit_ranks(*args, **kwargs)

        monkeypatch.setattr(decomposition, "fit_ranks", counting)
        plan_cache_clear()
        spec = get_algorithm("COSMA")
        infeasible = Scenario(name="bad", shape=square_shape(64), p=2, memory_words=64,
                              regime="limited")
        for point, options in ((scenario, {}), (scenario, {"max_idle_fraction": 0.5}), (infeasible, {})):
            planned = spec.plan(point, **options)
            assert (planned.grid is None) == (point is infeasible)
            fitted = len(fits)
            a, b = point.shape.random_matrices(seed=0)
            machine = DistributedMachine(point.p, memory_words=point.memory_words)
            if point is infeasible:
                with pytest.raises(InfeasiblePlan, match="footprint"):
                    spec.run(a, b, point, machine, **options)
            else:
                assert np.allclose(spec.run(a, b, point, machine, **options), a @ b)
            assert len(fits) == fitted, options
        fitted = len(fits)
        assert run_algorithm("COSMA", scenario).correct
        assert len(fits) == fitted

    def test_unregistered_spec_plans_with_its_own_planner(self, scenario):
        from repro.algorithms import AlgorithmSpec

        standalone = AlgorithmSpec(name="never-registered", runner=lambda a, b, s, m: a)
        run_plan = standalone.plan(scenario)  # must not touch the registry
        assert run_plan.algorithm == "never-registered"
        assert run_plan.feasible

    def test_superseded_spec_keeps_its_own_planner(self, scenario):
        from dataclasses import replace

        from repro.algorithms import register, unregister

        spec = get_algorithm("COSMA")
        marker = Plan(algorithm="marker", scenario=scenario, feasible=True)
        replacement = replace(spec, plan_fn=lambda s, **kw: marker)
        register(replacement, replace=True)
        try:
            # The superseded spec object must not dispatch to the new planner.
            assert spec.plan(scenario).algorithm == "COSMA"
            assert get_algorithm("COSMA").plan(scenario) is marker
        finally:
            register(spec, replace=True)
        unregister_probe = get_algorithm("COSMA")
        assert unregister_probe.plan(scenario).algorithm == "COSMA"
