"""Tests for the analytic cost model and the communication-computation overlap model."""

import math

import pytest

from repro.core.cost_model import (
    communication_reduction_vs_grid,
    cosma_latency_cost,
    cosma_local_domain,
)
from repro.core.overlap import even_rounds, pipeline_times


class TestCostModel:
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
