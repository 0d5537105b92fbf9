"""Tests for the near-optimal sequential MMM schedule (Listing 1).

The schedule, its exact count and Theorem 1 form one chain: the kernel and the
pebble game, both in ``S`` red pebbles, count exactly ``schedule_io``, which
is never below Theorem 1 and, where the tiles divide the matrix, at most
``sequential_optimality_ratio(S)`` above it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pebbling.game import Move, PebbleGame
from repro.pebbling.mmm_bounds import (
    schedule_io,
    sequential_io_lower_bound,
    sequential_optimality_ratio,
)
from repro.pebbling.mmm_cdag import build_mmm_cdag
from repro.pebbling.mmm_schedule import (
    optimal_tile_sizes,
    sequential_mmm_schedule,
    square_tile_size,
    tile_footprint,
)
from repro.sequential import rank1_multiply, tiled_multiply


def _eq27_28(s):
    """The paper's closed-form tiles (Equations 27-28) for ``ab + a + 1 <= S``."""
    root = math.sqrt((s - 1) ** 3)
    a = math.floor((root - s + 1) / (s - 2))
    b = math.floor(-(2 * s + root - s ** 2 - 1) / (root - s + 1))
    return a, b


class TestTileSizes:
    def test_square_tile_size(self):
        # a = floor(sqrt(S+1)) - 1
        assert square_tile_size(99) == 9
        assert square_tile_size(4) == 1

    def test_square_tile_fits_memory(self):
        for s in [4, 7, 8, 17, 64, 200, 1000]:
            a = square_tile_size(s)
            assert a * a + 2 * a <= s
            assert tile_footprint(a, a) <= s

    def test_optimal_tiles_fit_constraint(self):
        for s in [10, 31, 50, 64, 100, 500, 4096]:
            a, b = optimal_tile_sizes(s)
            assert tile_footprint(a, b) <= s

    def test_optimal_beats_or_matches_square(self):
        for s in [16, 100, 1024]:
            a, b = optimal_tile_sizes(s)
            sq = square_tile_size(s)
            rho_opt = a * b / (a + b)
            rho_sq = sq * sq / (2 * sq)
            assert rho_opt >= rho_sq - 1e-12

    def test_optimal_close_to_sqrt_s(self):
        s = 10_000
        a, b = optimal_tile_sizes(s)
        assert abs(a - math.sqrt(s)) < 0.05 * math.sqrt(s)
        assert abs(b - math.sqrt(s)) < 0.05 * math.sqrt(s)

    def test_closed_form_close_to_search(self):
        # The moves' footprint ab + a + 2 <= S is Eq. 26's ab + a + 1 <= S - 1.
        for s in [100, 1000, 10_000]:
            a_search, b_search = optimal_tile_sizes(s)
            a_closed, b_closed = _eq27_28(s - 1)
            assert abs(a_search - a_closed) <= 1
            assert abs(b_search - b_closed) <= 2
            assert tile_footprint(a_closed, b_closed) <= s
            assert a_search * b_search / (a_search + b_search) >= a_closed * b_closed / (a_closed + b_closed)

    def test_rejects_tiny_memory(self):
        with pytest.raises(ValueError):
            optimal_tile_sizes(3)
        with pytest.raises(ValueError):
            square_tile_size(3)


class TestScheduleStructure:
    def test_covers_all_multiplications(self):
        schedule = sequential_mmm_schedule(7, 5, 4, 64)
        computed = [move.vertex for move in schedule.as_pebbling_moves() if move.kind is Move.COMPUTE]
        assert len(computed) == len(set(computed)) == 7 * 5 * 4

    def test_tiles_clipped_to_matrix(self):
        schedule = sequential_mmm_schedule(5, 5, 3, 1000)
        assert (schedule.a, schedule.b) == (5, 5)
        for rows, cols in schedule.tiles():
            assert rows.stop <= 5
            assert cols.stop <= 5

    def test_number_of_steps(self):
        schedule = sequential_mmm_schedule(8, 8, 4, 30)
        tiles = math.ceil(8 / schedule.a) * math.ceil(8 / schedule.b)
        assert len(list(schedule.tiles())) * schedule.k == tiles * 4

    def test_square_variant(self):
        schedule = sequential_mmm_schedule(8, 8, 4, 30, tile="square")
        assert schedule.a == schedule.b == square_tile_size(30)

    def test_unknown_tile_strategy(self):
        with pytest.raises(ValueError):
            sequential_mmm_schedule(4, 4, 4, 30, tile="weird")

    def test_predicted_io_close_to_lower_bound(self):
        m = n = k = 64
        s = 256
        schedule = sequential_mmm_schedule(m, n, k, s)
        count = schedule_io(m, n, k, schedule.a, schedule.b)
        bound = sequential_io_lower_bound(m, n, k, s)
        # The tiles do not divide 64, so the count may exceed the
        # sqrt(S)/(sqrt(S)-1) factor by the edge tiles' slack.
        assert bound <= count <= bound * 1.35


class TestExecutablePebbling:
    @pytest.mark.parametrize("tile", ["optimal", "square"])
    @pytest.mark.parametrize("m,n,k,s", [(4, 4, 3, 12), (6, 5, 4, 20), (3, 7, 2, 16)])
    def test_moves_are_legal_and_complete(self, m, n, k, s, tile):
        schedule = sequential_mmm_schedule(m, n, k, s, tile=tile)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
        result = game.run(schedule.as_pebbling_moves())
        assert result.complete

    def test_measured_io_matches_prediction(self):
        m, n, k, s = 6, 6, 4, 14
        schedule = sequential_mmm_schedule(m, n, k, s)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
        result = game.run(schedule.as_pebbling_moves())
        assert result.io == schedule_io(m, n, k, schedule.a, schedule.b)

    def test_measured_io_respects_lower_bound_scaling(self):
        # The legal schedule in S red pebbles never beats Theorem 1 at S.
        m, n, k = 8, 8, 6
        s = 24
        schedule = sequential_mmm_schedule(m, n, k, s)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
        result = game.run(schedule.as_pebbling_moves())
        assert result.io >= sequential_io_lower_bound(m, n, k, s)

    def test_peak_red_usage_within_declared_capacity(self):
        m, n, k, s = 6, 6, 4, 18
        schedule = sequential_mmm_schedule(m, n, k, s)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s)
        result = game.run(schedule.as_pebbling_moves())
        assert result.peak_resident == schedule.required_red_pebbles() <= s


class TestTheoremOneChain:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 7),
        n=st.integers(1, 7),
        k=st.integers(1, 5),
        s=st.integers(4, 64),
        tile=st.sampled_from(["optimal", "square"]),
    )
    # S = 31 and S = 64 are values where Eq. 26's ab + a + 1 <= S is tight.
    @example(m=6, n=6, k=3, s=31, tile="optimal")
    @example(m=7, n=7, k=2, s=64, tile="optimal")
    @example(m=4, n=6, k=3, s=31, tile="optimal")
    @example(m=7, n=5, k=3, s=20, tile="square")
    def test_kernel_game_and_count_agree(self, m, n, k, s, tile):
        schedule = sequential_mmm_schedule(m, n, k, s, tile=tile)
        game = PebbleGame(build_mmm_cdag(m, n, k), red_pebbles=s).run(schedule.as_pebbling_moves())
        assert game.complete
        rng = np.random.default_rng(0)
        kernel = (tiled_multiply if tile == "optimal" else rank1_multiply)(
            rng.standard_normal((m, k)), rng.standard_normal((k, n)), s
        )
        assert kernel.stats.complete
        assert kernel.stats.peak_resident == game.peak_resident <= s
        count = schedule_io(m, n, k, schedule.a, schedule.b)
        bound = sequential_io_lower_bound(m, n, k, s)
        assert kernel.io == game.io == count >= bound
        assert (kernel.stats.loads, kernel.stats.computes) == (game.loads, game.computes)
        a, b = optimal_tile_sizes(s)
        if tile == "optimal" and s >= 8 and m % a == 0 and n % b == 0:
            assert count <= sequential_optimality_ratio(s) * bound

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.integers(8, 1500),
        tiles_m=st.integers(1, 4),
        tiles_n=st.integers(1, 4),
        k=st.integers(1, 64),
    )
    @example(s=8, tiles_m=1, tiles_n=1, k=1)
    @example(s=1500, tiles_m=4, tiles_n=4, k=64)
    def test_count_within_factor_where_tiles_divide(self, s, tiles_m, tiles_n, k):
        a, b = optimal_tile_sizes(s)
        m, n = a * tiles_m, b * tiles_n
        count = schedule_io(m, n, k, a, b)
        bound = sequential_io_lower_bound(m, n, k, s)
        assert bound <= count <= sequential_optimality_ratio(s) * bound
