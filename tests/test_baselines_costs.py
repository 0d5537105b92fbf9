"""Tests for the analytic Table 3 I/O formulas, and for the latency column
the registry prices next to them: the rounds a plan counts."""

import math

import pytest

from repro.algorithms import get_algorithm
from repro.baselines.costs import (
    evolution_table,
    io_cost_25d,
    io_cost_2d,
    io_cost_carma,
    io_cost_naive_1d,
    replication_factor_25d,
)
from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape


def counted_rounds(algorithm, m, n, k, p, s):
    """The busiest rank's rounds a run of ``algorithm`` counts, as its plan says."""
    scenario = Scenario(name="latency", shape=ProblemShape(m=m, n=n, k=k), p=p,
                        memory_words=s, regime="limited")
    return get_algorithm(algorithm).plan(scenario).rounds


class Test2D:
    def test_square_case_matches_table3(self):
        """Table 3, square matrices: the leading term of Q_2D is 2 n^2 / sqrt(p)."""
        n, p = 4096, 64
        expected_leading = 2 * n * n / math.sqrt(p)
        assert io_cost_2d(n, n, n, p) == pytest.approx(expected_leading, rel=0.07)
        # And the paper's full special-case expression agrees within 10%.
        assert io_cost_2d(n, n, n, p) == pytest.approx(2 * n * n * (math.sqrt(p) + 1) / p, rel=0.1)

    def test_independent_of_memory(self):
        # The 2D cost formula ignores extra memory: same value for any S.
        assert io_cost_2d(512, 512, 512, 16) == io_cost_2d(512, 512, 512, 16)

    def test_latency_grows_with_k(self):
        """Limited memory: SUMMA's panels stop covering k at once, so its
        counted rounds grow with k (12 -> 18)."""
        assert counted_rounds("ScaLAPACK", 64, 64, 4096, 16, 1 << 16) > counted_rounds(
            "ScaLAPACK", 64, 64, 64, 16, 1 << 16)


class Test25D:
    def test_replication_factor_clamped(self):
        c = replication_factor_25d(4096, 4096, 4096, 64, 16)
        assert c == 1.0
        c_big = replication_factor_25d(64, 64, 64, 512, 1 << 24)
        assert c_big == pytest.approx(512 ** (1 / 3))

    def test_reduces_to_2d_without_extra_memory(self):
        m = n = k = 4096
        p = 64
        s = int((m * k + n * k) / p)  # c = 1
        assert io_cost_25d(m, n, k, p, s) == pytest.approx(
            k * (m + n) / math.sqrt(p) + m * n / p, rel=0.01
        )

    def test_beats_2d_with_extra_memory(self):
        m = n = k = 4096
        p = 512
        s = 8 * (m * k + n * k) // p  # room for c = 8 copies
        assert io_cost_25d(m, n, k, p, s) < io_cost_2d(m, n, k, p)

    def test_3d_is_25d_with_max_replication(self):
        m = n = k = 4096
        p = 512
        huge_s = 1 << 40
        c = p ** (1 / 3)  # the 3D cost: k (m + n) / sqrt(p c) + mn c / p
        cost_3d = k * (m + n) / math.sqrt(p * c) + m * n * c / p
        assert io_cost_25d(m, n, k, p, huge_s) == pytest.approx(cost_3d, rel=0.01)

    def test_latency_positive(self):
        assert counted_rounds("CTF", 4096, 4096, 4096, 64, 1 << 20) > 0


class TestCarma:
    def test_limited_memory_sqrt3_factor(self):
        """Section 6.2: CARMA's cubic domains cost ~sqrt(3) more than COSMA in the
        limited-memory regime (leading term)."""
        m = n = k = 8192
        p = 512
        s = (m * n + m * k + n * k) // p  # barely feasible: limited memory
        carma = io_cost_carma(m, n, k, p, s)
        cosma = parallel_io_lower_bound(m, n, k, p, s)
        ratio = carma / cosma
        assert 1.2 < ratio < 2.1

    def test_extra_memory_close_to_cosma(self):
        m = n = k = 512
        p = 512
        s = 1 << 22
        ratio = io_cost_carma(m, n, k, p, s) / parallel_io_lower_bound(m, n, k, p, s)
        assert ratio == pytest.approx(1.0, rel=0.01)

    def test_latency_positive(self):
        assert counted_rounds("CARMA", 4096, 4096, 4096, 64, 1 << 20) > 0


class TestCosmaCost:
    def test_never_worse_than_2d(self):
        m = n = k = 2048
        footprint = m * n + m * k + n * k
        for p in [16, 64, 256]:
            for factor in [1, 4, 16]:
                s = factor * footprint // p  # always feasible: p S >= footprint
                assert parallel_io_lower_bound(m, n, k, p, s) <= io_cost_2d(m, n, k, p) * 1.01

    def test_never_worse_than_25d(self):
        for p in [16, 64, 256]:
            m = n = k = 2048
            s = 4 * (m * k + n * k) // p
            assert parallel_io_lower_bound(m, n, k, p, s) <= io_cost_25d(m, n, k, p, s) * 1.01

    def test_never_worse_than_carma(self):
        for p in [16, 64, 256]:
            m, n, k = 256, 256, 65536
            s = 2 * (m * n + m * k + n * k) // p
            assert parallel_io_lower_bound(m, n, k, p, s) <= io_cost_carma(m, n, k, p, s) * 1.01

    def test_tall_matrix_advantage_over_2d(self):
        """Table 3 "tall" case: 2D pays O(sqrt(p)) more than COSMA."""
        p = 4096
        m = n = int(math.sqrt(p))
        k = int(p ** 1.5 / 4)
        s = 2 * n * k // int(p ** (2 / 3))
        ratio = io_cost_2d(m, n, k, p) / parallel_io_lower_bound(m, n, k, p, s)
        assert ratio > math.sqrt(p) / 4

    def test_latency_cosma_positive(self):
        assert counted_rounds("COSMA", 4096, 4096, 4096, 64, 1 << 20) >= 1


class TestEvolution:
    def test_table_ordering_reflects_history(self):
        """Figure 2: the lineage naive -> 2D -> 2.5D -> CARMA -> COSMA is non-increasing."""
        m = n = k = 4096
        p = 512
        s = 4 * (m * k + n * k) // p
        table = evolution_table(m, n, k, p, s)
        assert table["naive-1D"] >= table["Cannon-2D"]
        assert table["Cannon-2D"] >= table["2.5D"] * 0.99
        assert table["2.5D"] >= table["COSMA"] * 0.99
        assert table["CARMA-recursive"] >= table["COSMA"] * 0.99
        assert table["COSMA"] == pytest.approx(table["lower-bound"])

    def test_naive_1d_needs_all_of_b(self):
        assert io_cost_naive_1d(64, 64, 64, 8) >= 64 * 64


class TestPredict:
    """``AlgorithmSpec.cost``: the entry point the sweep aggregator, the
    performance model and the CLI bounds table go through."""

    def _scenario(self):
        from repro.workloads.scaling import Scenario
        from repro.workloads.shapes import square_shape

        return Scenario(name="s", shape=square_shape(512), p=64, memory_words=16384, regime="limited")

    def test_predict_matches_per_algorithm_formulas(self):
        """Each algorithm's Table 3 I/O formula, priced with the rounds its
        plan counts."""
        scenario = self._scenario()
        m = n = k = 512
        p, s = 64, 16384
        expected_io = {
            "COSMA": parallel_io_lower_bound(m, n, k, p, s),
            "ScaLAPACK": io_cost_2d(m, n, k, p),
            "CTF": io_cost_25d(m, n, k, p, s),
            "CARMA": io_cost_carma(m, n, k, p, s),
            "Cannon": io_cost_2d(m, n, k, p),
        }
        expected_latency = {"COSMA": 52, "ScaLAPACK": 40, "CTF": 28, "CARMA": 9, "Cannon": 16}
        for algorithm, expected in expected_io.items():
            prediction = get_algorithm(algorithm).cost(scenario)
            assert prediction.algorithm == algorithm
            assert prediction.io_words_per_rank == expected
            assert prediction.latency_rounds == expected_latency[algorithm]
            assert prediction.latency_rounds == get_algorithm(algorithm).plan(scenario).rounds
            assert prediction.flops_per_rank == pytest.approx(2 * m * n * k / p)
            assert get_algorithm(algorithm).cost(scenario) is prediction  # memoized

    def test_aliases_agree_with_harness_names(self):
        scenario = self._scenario()
        scalapack = get_algorithm("ScaLAPACK").cost(scenario)
        assert get_algorithm("SUMMA").cost(scenario) == scalapack
        assert get_algorithm("2D").cost(scenario) == scalapack
        assert get_algorithm("2.5D").cost(scenario) == get_algorithm("CTF").cost(scenario)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            get_algorithm("MAGMA").cost(self._scenario())

    def test_registry_is_the_one_source_of_cost_models(self):
        """Every registered spec predicts exactly its own I/O formula and its
        plan's rounds, a spec without a formula predicts nothing, one without a
        planner zero rounds, and an unregistered name is unknown."""
        from repro.algorithms import AlgorithmSpec, algorithm_specs, register, unregister

        scenario = self._scenario()
        m, n, k, p, s = 512, 512, 512, 64, 16384
        for spec in algorithm_specs():
            if spec.io_cost is None:
                assert spec.cost(scenario) is None
                continue
            prediction = spec.cost(scenario)
            assert prediction.io_words_per_rank == spec.io_cost(m, n, k, p, s)
            assert prediction.latency_rounds == spec.plan(scenario).rounds

        register(AlgorithmSpec(name="_tmp-costed", runner=lambda *a: None,
                               io_cost=lambda m, n, k, p, s: 1.0, aliases=("_tmp-alias",)))
        prediction = get_algorithm("_tmp-alias").cost(scenario)
        assert (prediction.io_words_per_rank, prediction.latency_rounds) == (1.0, 0.0)
        unregister("_tmp-costed")
        for name in ("_tmp-costed", "_tmp-alias"):
            with pytest.raises(KeyError):
                get_algorithm(name)

    def test_analytic_time_prices_the_prediction(self):
        from repro.experiments.perf_model import analytic_time
        from repro.machine.topology import PIZ_DAINT_LIKE

        scenario = self._scenario()
        prediction = get_algorithm("COSMA").cost(scenario)
        expected = PIZ_DAINT_LIKE.compute_time(prediction.flops_per_rank) + PIZ_DAINT_LIKE.communication_time(
            prediction.io_words_per_rank, prediction.latency_rounds
        )
        assert analytic_time(prediction) == pytest.approx(expected)
        assert analytic_time("COSMA", scenario) == pytest.approx(expected)
        with pytest.raises(ValueError):
            analytic_time("COSMA")
