"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import HopMachine
from oracle.collectives import broadcast, reduce

from repro.baselines.carma import carma_domains
from repro.baselines.costs import io_cost_25d, io_cost_2d, io_cost_carma
from repro.baselines.cuboid import validate_domains
from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.grid import fit_ranks, total_received_words
from repro.machine.simulator import DistributedMachine
from repro.pebbling.mmm_bounds import parallel_io_lower_bound, schedule_io, sequential_io_lower_bound
from repro.pebbling.mmm_schedule import optimal_tile_sizes, sequential_mmm_schedule, tile_footprint
from repro.utils.intmath import ceil_div, divisors, split_evenly

# Keep hypothesis example counts moderate: several properties run simulator code.
settings.register_profile("repro", max_examples=40, deadline=None)
settings.load_profile("repro")

dims = st.integers(min_value=1, max_value=40)
small_dims = st.integers(min_value=1, max_value=16)


class TestIntMathProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_ceil_div_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b or (a == 0 and q == 0)

    @given(st.integers(min_value=1, max_value=20000))
    def test_divisors_divide(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(ds)
        assert 1 in ds and n in ds

    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=64))
    def test_split_evenly_invariants(self, extent, parts):
        sizes = split_evenly(extent, parts)
        assert sum(sizes) == extent
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1


class TestBoundProperties:
    @given(m=dims, n=dims, k=dims, s=st.integers(min_value=4, max_value=4096))
    def test_feasible_schedule_never_beats_lower_bound(self, m, n, k, s):
        a, b = optimal_tile_sizes(s)
        assert schedule_io(m, n, k, a, b) >= sequential_io_lower_bound(m, n, k, s)

    @given(m=dims, n=dims, k=dims, s=st.integers(min_value=4, max_value=4096))
    def test_sequential_bound_monotone_in_memory(self, m, n, k, s):
        assert sequential_io_lower_bound(m, n, k, s) >= sequential_io_lower_bound(m, n, k, 4 * s)

    @given(
        m=st.integers(min_value=8, max_value=256),
        n=st.integers(min_value=8, max_value=256),
        k=st.integers(min_value=8, max_value=256),
        p=st.integers(min_value=1, max_value=64),
    )
    def test_cosma_cost_never_exceeds_baselines_when_feasible(self, m, n, k, p):
        footprint = m * n + m * k + n * k
        s = max(16, 2 * footprint // p)
        cosma = parallel_io_lower_bound(m, n, k, p, s)
        assert cosma <= io_cost_2d(m, n, k, p) * 1.05
        assert cosma <= io_cost_25d(m, n, k, p, s) * 1.05
        assert cosma <= io_cost_carma(m, n, k, p, s) * 1.05

    @given(
        m=st.integers(min_value=8, max_value=128),
        k=st.integers(min_value=8, max_value=128),
        p=st.integers(min_value=1, max_value=32),
    )
    def test_parallel_bound_decreasing_in_p(self, m, k, p):
        n = m
        s = max(16, (m * n + m * k + n * k) // p)
        assert parallel_io_lower_bound(m, n, k, 2 * p, s) <= parallel_io_lower_bound(m, n, k, p, s) + 1e-9

    @given(s=st.integers(min_value=4, max_value=100000))
    def test_optimal_tiles_respect_memory(self, s):
        a, b = optimal_tile_sizes(s)
        assert tile_footprint(a, b) <= s
        assert a >= 1 and b >= 1


class TestScheduleProperties:
    @given(m=small_dims, n=small_dims, k=small_dims, s=st.integers(min_value=4, max_value=64))
    def test_schedule_covers_iteration_space(self, m, n, k, s):
        schedule = sequential_mmm_schedule(m, n, k, s)
        assert sum(len(rows) * len(cols) for rows, cols in schedule.tiles()) * schedule.k == m * n * k

    @given(m=small_dims, n=small_dims, k=small_dims, s=st.integers(min_value=4, max_value=64))
    def test_predicted_io_at_least_inputs_outputs(self, m, n, k, s):
        # Every input is loaded and every output stored at least once.
        schedule = sequential_mmm_schedule(m, n, k, s)
        assert schedule_io(m, n, k, schedule.a, schedule.b) >= m * k + k * n + m * n


class TestDecompositionProperties:
    @given(m=st.integers(min_value=2, max_value=64), n=st.integers(min_value=2, max_value=64),
           k=st.integers(min_value=2, max_value=64), p=st.integers(min_value=1, max_value=32))
    def test_carma_domains_tile_space(self, m, n, k, p):
        domains = carma_domains(m, n, k, min(p, m * n * k))
        validate_domains(m, n, k, domains)

    @given(m=st.integers(min_value=4, max_value=128), n=st.integers(min_value=4, max_value=128),
           k=st.integers(min_value=4, max_value=128), p=st.integers(min_value=1, max_value=40))
    def test_fit_ranks_work_conservation(self, m, n, k, p):
        from repro.core.grid import candidate_grids

        fit = fit_ranks(m, n, k, p, max_idle_fraction=0.03)
        grid = fit.grid
        assert grid.p_used <= p
        # The fitted grid stays within the idle allowance whenever any grid
        # in the delta window is feasible at all; for awkward (p, shape)
        # combinations (every factorization has an extent exceeding a matrix
        # dimension) the optimizer falls back to the largest feasible count.
        min_p_used = max(1, math.ceil(p * (1.0 - 0.03)))
        window_feasible = any(
            candidate_grids(q, m, n, k) for q in range(min_p_used, p + 1)
        )
        if window_feasible:
            assert fit.idle_fraction <= 0.03 + 1e-9 or grid.p_used == p
        else:
            # Fallback: the chosen count is the largest feasible one.
            assert all(
                not candidate_grids(q, m, n, k) for q in range(grid.p_used + 1, min_p_used)
            )
        # The busiest rank covers at least its fair share of the work.
        assert fit.computation_per_rank * grid.p_used >= m * n * k

    @given(m=st.integers(min_value=4, max_value=64), n=st.integers(min_value=4, max_value=64),
           k=st.integers(min_value=4, max_value=64))
    def test_single_rank_grid_communicates_nothing(self, m, n, k):
        assert total_received_words(m, n, k, 1, 1, 1) == 0


class TestSimulatorProperties:
    @given(
        q=st.integers(min_value=2, max_value=8),
        words=st.integers(min_value=1, max_value=50),
    )
    def test_broadcast_conservation_and_volume(self, q, words):
        machine = HopMachine(q)
        broadcast(machine, 0, list(range(q)), np.ones(words))
        assert machine.counters.conservation_ok()
        assert machine.counters.total_words_sent == (q - 1) * words

    @given(
        q=st.integers(min_value=2, max_value=8),
        words=st.integers(min_value=1, max_value=50),
    )
    def test_reduce_volume(self, q, words):
        machine = HopMachine(q)
        blocks = {r: np.full(words, float(r)) for r in range(q)}
        total = reduce(machine, 0, list(range(q)), blocks)
        assert machine.counters.total_words_sent == (q - 1) * words
        assert np.allclose(total, sum(range(q)))


class TestEndToEndProperties:
    @given(
        m=st.integers(min_value=2, max_value=24),
        n=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=2, max_value=24),
        p=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_cosma_always_correct_and_conservative(self, m, n, k, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        machine = DistributedMachine(p, memory_words=1 << 14)
        decomposition = build_decomposition(m, n, k, p, 1 << 14)
        product = cosma_run(machine, a, b, decomposition)
        assert np.allclose(product, a @ b, atol=1e-8 * k)
        assert machine.counters.conservation_ok()
        assert decomposition.p_used <= p
