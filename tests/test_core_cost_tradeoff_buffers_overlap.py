"""Tests for the analytic cost model, I/O-latency trade-off, buffers and overlap."""

import math

import pytest

from repro.core.buffers import fits_in_memory, max_overlap_rounds, plan_buffers
from repro.core.cost_model import (
    communication_reduction_vs_grid,
    cosma_io_cost,
    cosma_latency_cost,
    cosma_local_domain,
    cosma_memory_per_rank,
)
from repro.core.decomposition import build_decomposition
from repro.core.overlap import even_rounds, pipeline_times
from repro.core.tradeoff import io_cost, latency_cost, min_io_point, tradeoff_curve
from repro.pebbling.mmm_bounds import parallel_io_lower_bound


class TestCostModel:
    def test_cost_equals_theorem2_bound(self):
        assert cosma_io_cost(512, 512, 512, 64, 4096) == pytest.approx(
            parallel_io_lower_bound(512, 512, 512, 64, 4096)
        )

    def test_local_domain_limited_regime(self):
        a, b = cosma_local_domain(1024, 1024, 1024, 64, 4096)
        assert a == pytest.approx(64.0)
        assert b == pytest.approx(1024 ** 3 / (64 * 4096))

    def test_local_domain_extra_regime_cubic(self):
        a, b = cosma_local_domain(64, 64, 64, 8, 1 << 20)
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("m, n, k, p, s, width, depth", [
        (1024, 1024, 1024, 16, 256, 16.0, 1024 ** 3 / (16 * 256)),  # a = sqrt(S), b = mnk/(pS)
        (64, 64, 64, 8, 1 << 20, 32.0, 32.0),            # a = b = (mnk/p)^(1/3)
        (512, 512, 512, 64, 16384, 128.0, 128.0),        # the two branches meet
        (1024, 1024, 1024, 512, 8192, math.sqrt(8192), 256.0),  # a^2 = S exactly
        (1024, 1024, 1024, 1024, 4096, 64.0, 256.0),     # a tall slab: b = 4a
    ], ids=["limited", "extra", "meet", "sqrt-s", "slab"])
    def test_local_domain_eq32(self, m, n, k, p, s, width, depth):
        """Equation 32: the width and depth of the local domain, every rank gets
        ``mnk / p`` multiplications, and its output block fits in S."""
        a, b = cosma_local_domain(m, n, k, p, s)
        assert (a, b) == (pytest.approx(width), pytest.approx(depth))
        assert a * a * b == pytest.approx(m * n * k / p, rel=1e-9)
        assert a * a <= s * (1 + 1e-12)

    def test_memory_per_rank_within_s(self):
        for p in [16, 64, 256]:
            assert cosma_memory_per_rank(1024, 1024, 1024, p, 4096) <= 4096 * 1.01

    def test_latency_positive(self):
        assert cosma_latency_cost(1024, 1024, 1024, 64, 4096) >= 1.0

    def test_latency_decreases_with_memory(self):
        tight = cosma_latency_cost(1024, 1024, 1024, 64, 4096)
        roomy = cosma_latency_cost(1024, 1024, 1024, 64, 65536)
        assert roomy <= tight

    def test_figure3_cubic_grid_vs_cosma(self):
        """Figure 3: for p=8 and square matrices in the limited-memory regime a
        top-down cubic decomposition moves measurably more data than COSMA's
        bottom-up decomposition (the paper's illustration reports 17%)."""
        n = 512
        p = 8
        s = n * n // 8  # the cubic local output block does not fit in memory
        ratio = communication_reduction_vs_grid(n, n, n, p, s, (2, 2, 2))
        assert 1.1 < ratio < 3.0

    def test_reduction_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            communication_reduction_vs_grid(64, 64, 64, 4, 1024, (2, 2, 2))


class TestTradeoff:
    def test_io_decreases_with_a(self):
        m = n = k = 512
        p = 64
        assert io_cost(m, n, k, p, 32) < io_cost(m, n, k, p, 8)

    def test_latency_increases_near_sqrt_s(self):
        m = n = k = 512
        p, s = 64, 1024
        assert latency_cost(m, n, k, p, s, 31.9) > latency_cost(m, n, k, p, s, 16)

    def test_latency_infinite_at_sqrt_s(self):
        assert math.isinf(latency_cost(64, 64, 64, 4, 100, 10.0))

    def test_curve_monotone_io(self):
        points = tradeoff_curve(512, 512, 512, 64, 1024, samples=16)
        ios = [p.io_cost for p in points]
        assert all(b <= a + 1e-6 for a, b in zip(ios, ios[1:]))

    def test_min_io_point_matches_cost_model(self):
        m = n = k = 512
        p, s = 64, 1024
        point = min_io_point(m, n, k, p, s)
        assert point.io_cost == pytest.approx(cosma_io_cost(m, n, k, p, s), rel=0.05)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            io_cost(8, 8, 8, 2, 0.0)


class TestBuffers:
    def test_plan_positive(self):
        decomposition = build_decomposition(64, 64, 64, 8, 4096)
        plan = plan_buffers(decomposition)
        assert plan.a_receive_words > 0
        assert plan.b_receive_words > 0
        assert plan.c_accumulator_words > 0

    def test_double_buffering_doubles_comm_buffers(self):
        decomposition = build_decomposition(64, 64, 64, 8, 4096)
        single = plan_buffers(decomposition, double_buffered=False)
        double = plan_buffers(decomposition, double_buffered=True)
        assert double.communication_words == 2 * single.communication_words
        assert double.c_accumulator_words == single.c_accumulator_words

    def test_single_buffered_plan_fits(self):
        decomposition = build_decomposition(64, 64, 256, 8, 4096)
        assert fits_in_memory(decomposition, double_buffered=False)

    def test_max_overlap_rounds_at_least_base(self):
        decomposition = build_decomposition(64, 64, 256, 8, 4096)
        assert max_overlap_rounds(decomposition) >= decomposition.num_steps


class TestOverlap:
    def test_no_overlap_is_sum(self):
        timeline = pipeline_times([1.0, 1.0], [2.0, 2.0])
        assert timeline.total_no_overlap == pytest.approx(6.0)

    def test_overlap_hides_communication(self):
        timeline = pipeline_times([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        # comm_0 + max pairs + comp_last = 1 + 2 + 2 + 2 = 7 < 9.
        assert timeline.total_with_overlap == pytest.approx(7.0)
        assert timeline.total_with_overlap < timeline.total_no_overlap

    def test_overlap_never_better_than_max_component(self):
        timeline = even_rounds(total_comm=10.0, total_comp=4.0, rounds=8)
        assert timeline.total_with_overlap >= max(10.0, 4.0)

    def test_speedup_at_least_one(self):
        timeline = even_rounds(5.0, 5.0, 4)
        assert timeline.speedup >= 1.0

    def test_single_round_no_benefit(self):
        timeline = even_rounds(3.0, 3.0, 1)
        assert timeline.total_with_overlap == pytest.approx(timeline.total_no_overlap)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            pipeline_times([1.0], [1.0, 2.0])

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            pipeline_times([-1.0], [1.0])

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            even_rounds(1.0, 1.0, 0)

    def test_overlap_efficiency_bounded(self):
        timeline = even_rounds(6.0, 6.0, 6)
        assert 0.0 <= timeline.overlap_efficiency <= 1.0
