"""Tests for Equation 32's local domain, section 6.3's latency trade-off,
Figure 3 on counted words, and the time model's communication-computation
overlap."""

import math

import pytest

from repro.algorithms import get_algorithm
from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.experiments.harness import run_algorithm
from repro.experiments.perf_model import time_breakdown
from repro.machine import DistributedMachine, ShapeToken
from repro.pebbling.mmm_bounds import parallel_io_lower_bound
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape, square_shape


def eq32(m, n, k, p, s):
    """Equation 32: the width ``a`` and depth ``b`` of the optimal real-valued
    local domain ``[a x a x b]``."""
    cube = (m * n * k / p) ** (1 / 3)
    return min(math.sqrt(s), cube), max(m * n * k / (p * s), cube)


class TestCostModel:
    def test_local_domain_limited_regime(self):
        a, b = eq32(1024, 1024, 1024, 64, 4096)
        assert (a, b) == (pytest.approx(64.0), pytest.approx(1024 ** 3 / (64 * 4096)))
        assert parallel_io_lower_bound(1024, 1024, 1024, 64, 4096) == pytest.approx(a * a + 2 * a * b)

    def test_local_domain_extra_regime_cubic(self):
        a, b = eq32(64, 64, 64, 8, 1 << 20)
        assert a == pytest.approx(b)
        assert parallel_io_lower_bound(64, 64, 64, 8, 1 << 20) == pytest.approx(3 * a * a)

    @pytest.mark.parametrize("m, n, k, p, s, width, depth", [
        (1024, 1024, 1024, 16, 256, 16.0, 1024 ** 3 / (16 * 256)),  # a = sqrt(S), b = mnk/(pS)
        (64, 64, 64, 8, 1 << 20, 32.0, 32.0),            # a = b = (mnk/p)^(1/3)
        (512, 512, 512, 64, 16384, 128.0, 128.0),        # the two branches meet
        (1024, 1024, 1024, 512, 8192, math.sqrt(8192), 256.0),  # a^2 = S exactly
        (1024, 1024, 1024, 1024, 4096, 64.0, 256.0),     # a tall slab: b = 4a
    ], ids=["limited", "extra", "meet", "sqrt-s", "slab"])
    def test_local_domain_eq32(self, m, n, k, p, s, width, depth):
        """Equation 32: the width and depth of the local domain, every rank gets
        ``mnk / p`` multiplications, and its output block fits in S.  Its I/O
        ``a^2 + 2ab`` is Theorem 2's bound (Equation 33)."""
        a, b = eq32(m, n, k, p, s)
        assert (a, b) == (pytest.approx(width), pytest.approx(depth))
        assert a * a * b == pytest.approx(m * n * k / p, rel=1e-9)
        assert a * a <= s * (1 + 1e-12)
        assert parallel_io_lower_bound(m, n, k, p, s) == pytest.approx(a * a + 2 * a * b, rel=1e-12)

    @staticmethod
    def _counted_rounds(s):
        """COSMA's busiest rank's rounds on 1024^3, p = 64, as its plan counts them."""
        scenario = Scenario(name="latency", shape=square_shape(1024), p=64, memory_words=s,
                            regime="limited")
        return get_algorithm("COSMA").plan(scenario).rounds

    def test_latency_positive(self):
        assert self._counted_rounds(49152) >= 1  # S = the per-rank footprint

    def test_latency_decreases_with_memory(self):
        """Section 6.3's trade-off, counted: 4x the footprint takes 14 rounds
        where 1x takes 60."""
        assert self._counted_rounds(4 * 49152) < self._counted_rounds(49152)

    def test_figure3_cubic_grid_vs_cosma(self):
        """Figure 3, counted at a point ``plan()`` calls feasible: on
        192 x 192 x 48, p = 8, S = 6912 COSMA fits (2, 4, 1), and a top-down
        cubic grid receives 1.5x its words per rank (its busiest domain
        touches 13,824 words against 11,520: the paper's 17%)."""
        m, n, k, p, s = 192, 192, 48, 8, 6912
        scenario = Scenario(name="fig3", shape=ProblemShape(m=m, n=n, k=k, family="fig3"), p=p,
                            memory_words=s, regime="limited")
        fit = ProcessorGrid(*get_algorithm("COSMA").feasible_plan(scenario).grid)
        received = {}
        for grid in (fit, ProcessorGrid(2, 2, 2)):
            machine = DistributedMachine(p, memory_words=s, mode="volume")
            cosma_run(machine, ShapeToken((m, k)), ShapeToken((k, n)),
                      build_decomposition(m, n, k, p, s, grid=grid))
            received[grid.as_tuple()] = machine.counters.mean_received_per_rank()
        assert received == {(2, 4, 1): 4608, (2, 2, 2): 6912}
        assert received[(2, 2, 2)] / received[fit.as_tuple()] > 1.1

    def test_reduction_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            build_decomposition(64, 64, 64, 4, 1024, grid=ProcessorGrid(2, 2, 2))


class TestOverlap:
    """The overlapped total of :func:`~repro.experiments.perf_model.time_breakdown`:
    ``max(comm, comp) + min(comm, comp) / rounds``, over COSMA runs on a
    ladder of memory sizes (11, 8 and 6 counted rounds)."""

    @pytest.fixture(scope="class")
    def breakdowns(self):
        runs = [run_algorithm("COSMA", Scenario(name=f"overlap-{s}", shape=square_shape(96), p=16,
                                                memory_words=s, regime="strong"), mode="volume")
                for s in (2048, 4096, 32768)]
        assert [run.rounds for run in runs] == [11, 8, 6]
        return [time_breakdown(run) for run in runs]

    def test_no_overlap_is_sum(self, breakdowns):
        for breakdown in breakdowns:
            assert breakdown.total_no_overlap == pytest.approx(
                breakdown.computation + breakdown.communication, rel=1e-12, abs=0)

    def test_overlap_hides_communication(self, breakdowns):
        for breakdown in breakdowns:
            assert breakdown.total_with_overlap < breakdown.total_no_overlap

    def test_overlap_never_better_than_max_component(self, breakdowns):
        for breakdown in breakdowns:
            assert breakdown.total_with_overlap >= max(breakdown.communication, breakdown.computation)

    def test_speedup_at_least_one(self, breakdowns):
        for breakdown in breakdowns:
            assert breakdown.total_no_overlap / breakdown.total_with_overlap >= 1.0

    def test_single_round_no_benefit(self):
        """32^3 on p = 2 runs grid (1, 1, 2): one round, the k-fiber
        reduction, which has nothing to pipeline."""
        run = run_algorithm("COSMA", Scenario(name="one", shape=square_shape(32), p=2,
                                              memory_words=1 << 12, regime="strong"), mode="volume")
        assert (run.rounds, run.max_words_per_rank) == (1, 1024)
        breakdown = time_breakdown(run)
        assert breakdown.total_with_overlap == pytest.approx(breakdown.total_no_overlap, rel=1e-12, abs=0)

    def test_overlap_efficiency_bounded(self, breakdowns):
        for breakdown in breakdowns:
            hidden = breakdown.total_no_overlap - breakdown.total_with_overlap
            assert 0.0 <= hidden / breakdown.communication <= 1.0
