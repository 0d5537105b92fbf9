"""Tests for the baseline algorithm executors (Cannon, SUMMA, 2.5D, CARMA, cuboid)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import HopMachine
from oracle.grid import cannon as per_hop_cannon

from repro.baselines.cannon import cannon_decomposition, cannon_multiply
from repro.baselines.carma import (
    carma_domains,
    carma_multiply,
    carma_table,
    largest_power_of_two_at_most,
    usable_ranks,
)
from repro.baselines.cuboid import (
    CuboidDomain,
    cuboid_multiply,
    domain_table,
    table_domains,
    validate_domains,
)
from repro.baselines.grid25d import choose_25d_grid, grid25d_multiply
from repro.baselines.summa import choose_2d_grid, summa_multiply
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken


class TestCannon:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_matches_numpy(self, rng, p):
        a = rng.standard_normal((18, 12))
        b = rng.standard_normal((12, 24))
        result = cannon_multiply(a, b, p)
        assert np.allclose(result.matrix, a @ b)
        assert result.grid_size ** 2 <= p

    def test_uses_largest_square_grid(self, rng):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        result = cannon_multiply(a, b, 10)
        assert result.grid_size == 3

    def test_nondivisible_dimensions_padded(self, rng):
        a = rng.standard_normal((13, 11))
        b = rng.standard_normal((11, 7))
        result = cannon_multiply(a, b, 4)
        assert np.allclose(result.matrix, a @ b)

    def test_single_rank_no_communication(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        result = cannon_multiply(a, b, 1)
        assert result.counters.total_words_sent == 0

    def test_volume_close_to_2d_formula(self):
        """Exactly SUMMA's words on the same ``q x q`` grid plus the skew, which
        moves one more block of each operand on all but one row (column) of
        the grid: ``(q + 1) / q`` times SUMMA's words received per rank."""
        for side, p, cannon_words, summa_words in (
            (32, 16, 480, 384),
            (768, 256, 73440, 69120),
            (4096, 1024, 1047552, 1015808),
        ):
            q = int(np.sqrt(p))
            tokens = ShapeToken((side, side)), ShapeToken((side, side))
            cannon = cannon_multiply(*tokens, p, machine=DistributedMachine(p, mode="volume"))
            summa = summa_multiply(*tokens, p, machine=DistributedMachine(p, mode="volume"),
                                   grid=(q, q))
            assert cannon.counters.mean_received_per_rank() == cannon_words
            assert summa.counters.mean_received_per_rank() == summa_words
            assert q * cannon_words == (q + 1) * summa_words

    @pytest.mark.parametrize("mode", ["legacy", "plane", "volume"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_rank_grid_records_its_footprint(self, rng, p, mode):
        """On a 1 x 1 grid the one rank holds all of A, B and C: the peak says
        so, in both modes and in the per-hop reference (``legacy``, the mode
        it served)."""
        if mode == "legacy":
            machine = HopMachine(p)
            per_hop_cannon(machine, cannon_decomposition(13, 11, 7, p, 1 << 20),
                           rng.standard_normal((13, 7)), rng.standard_normal((7, 11)))
            assert machine.peak_resident_words == 13 * 7 + 7 * 11 + 13 * 11
            return
        machine = DistributedMachine(p, mode=mode)
        if mode == "volume":
            a, b = ShapeToken((13, 7)), ShapeToken((7, 11))
        else:
            a, b = rng.standard_normal((13, 7)), rng.standard_normal((7, 11))
        result = cannon_multiply(a, b, p, machine=machine)
        assert result.grid_size == 1
        assert machine.peak_resident_words == 13 * 7 + 7 * 11 + 13 * 11


class TestSumma:
    @pytest.mark.parametrize("p", [1, 2, 4, 6, 12])
    def test_matches_numpy(self, rng, p):
        a = rng.standard_normal((18, 15))
        b = rng.standard_normal((15, 24))
        result = summa_multiply(a, b, p)
        assert np.allclose(result.matrix, a @ b)

    def test_grid_uses_all_ranks(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        result = summa_multiply(a, b, 6)
        pm, pn = result.grid
        assert pm * pn == 6

    def test_choose_grid_matches_aspect_ratio(self):
        pm, pn = choose_2d_grid(1000, 10, 16)
        assert pm > pn

    def test_explicit_grid(self, rng):
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((8, 12))
        result = summa_multiply(a, b, 4, grid=(4, 1))
        assert result.grid == (4, 1)
        assert np.allclose(result.matrix, a @ b)

    def test_oversized_grid_rejected(self, rng):
        with pytest.raises(ValueError):
            summa_multiply(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)), 2, grid=(2, 2))

    def test_panel_width_affects_rounds_not_volume(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        wide = summa_multiply(a, b, 4, panel_width=16)
        narrow = summa_multiply(a, b, 4, panel_width=4)
        assert np.allclose(wide.matrix, narrow.matrix)
        assert wide.counters.total_words_sent == narrow.counters.total_words_sent
        assert narrow.counters.max_rounds() > wide.counters.max_rounds()

    def test_volume_independent_of_memory_size(self, rng):
        """The defining weakness of 2D algorithms: extra memory does not help."""
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        small = summa_multiply(a, b, 4, memory_words=512)
        large = summa_multiply(a, b, 4, memory_words=1 << 20)
        assert small.counters.total_words_sent == large.counters.total_words_sent


class Test25D:
    @pytest.mark.parametrize("p", [1, 4, 8, 16])
    def test_matches_numpy(self, rng, p):
        a = rng.standard_normal((16, 20))
        b = rng.standard_normal((20, 12))
        result = grid25d_multiply(a, b, p, memory_words=4096)
        assert np.allclose(result.matrix, a @ b)

    def test_replication_grows_with_memory(self):
        lean = choose_25d_grid(64, 64, 64, 16, memory_words=512)
        rich = choose_25d_grid(64, 64, 64, 16, memory_words=1 << 16)
        assert rich[2] >= lean[2]

    def test_grid_is_square_layer(self):
        q, q2, c = choose_25d_grid(128, 128, 128, 32, memory_words=4096)
        assert q == q2
        assert q * q * c <= 32

    def test_extra_memory_reduces_volume(self, rng):
        m = n = k = 32
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        lean = grid25d_multiply(a, b, 16, memory_words=300, grid=(4, 4, 1))
        rich = grid25d_multiply(a, b, 16, memory_words=1 << 16, grid=(2, 2, 4))
        assert rich.counters.mean_received_per_rank() < lean.counters.mean_received_per_rank()

    def test_explicit_grid_too_large_rejected(self, rng):
        with pytest.raises(ValueError):
            grid25d_multiply(
                rng.standard_normal((8, 8)), rng.standard_normal((8, 8)), 4, 1024, grid=(2, 2, 2)
            )


class TestCuboid:
    def test_single_domain(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        domains = [CuboidDomain(rank=0, i_range=(0, 6), j_range=(0, 5), k_range=(0, 4))]
        result = cuboid_multiply(a, b, domains)
        assert np.allclose(result.matrix, a @ b)
        assert result.counters.total_words_sent == 0

    def test_k_split_requires_reduction(self, rng):
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((8, 6))
        domains = [
            CuboidDomain(rank=0, i_range=(0, 6), j_range=(0, 6), k_range=(0, 4)),
            CuboidDomain(rank=1, i_range=(0, 6), j_range=(0, 6), k_range=(4, 8)),
        ]
        result = cuboid_multiply(a, b, domains)
        assert np.allclose(result.matrix, a @ b)
        # One 6x6 partial result must travel to the owner.
        assert result.counters.total_words_sent == 36

    def test_j_split_replicates_a(self, rng):
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((8, 6))
        domains = [
            CuboidDomain(rank=0, i_range=(0, 6), j_range=(0, 3), k_range=(0, 8)),
            CuboidDomain(rank=1, i_range=(0, 6), j_range=(3, 6), k_range=(0, 8)),
        ]
        result = cuboid_multiply(a, b, domains)
        assert np.allclose(result.matrix, a @ b)
        # The 6x8 block of A is needed by both ranks but stored once.
        assert result.counters.total_words_sent == 48

    def test_validate_rejects_non_tiling(self):
        with pytest.raises(ValueError):
            validate_domains(
                4, 4, 4, [CuboidDomain(rank=0, i_range=(0, 4), j_range=(0, 4), k_range=(0, 2))]
            )

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            validate_domains(
                4, 4, 4, [CuboidDomain(rank=0, i_range=(0, 5), j_range=(0, 4), k_range=(0, 4))]
            )

    @pytest.mark.parametrize("mode", ["plane", "volume"])
    def test_validate_rejects_a_rank_listed_twice(self, rng, mode):
        """The volume check cannot see it, and the second block used to
        overwrite the first: a wrong product with no error."""
        halves = [CuboidDomain(0, (0, 2), (0, 4), (0, 4)), CuboidDomain(0, (2, 4), (0, 4), (0, 4))]
        machine = DistributedMachine(2, memory_words=1 << 16, mode=mode)
        with pytest.raises(ValueError, match="rank 0 is assigned more than one domain"):
            cuboid_multiply(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), halves,
                            machine=machine)

    @pytest.mark.parametrize("mode", ["plane", "volume"])
    @pytest.mark.parametrize("rank", [-1, 3])
    def test_a_rank_outside_the_machine_is_rejected(self, rng, mode, rank):
        """A negative rank used to wrap onto rank p - 1 through numpy indexing
        (the run charged it there and the product verified)."""
        halves = [CuboidDomain(rank, (0, 2), (0, 4), (0, 4)), CuboidDomain(0, (2, 4), (0, 4), (0, 4))]
        machine = DistributedMachine(3, memory_words=1 << 16, mode=mode)
        with pytest.raises(ValueError, match=rf"domain rank {rank} is outside .*\[0, 3\)"):
            cuboid_multiply(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), halves,
                            machine=machine)
        assert not machine.counters.data.any()

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cuboid_multiply(rng.standard_normal((4, 3)), rng.standard_normal((4, 4)), [])

    def test_table_and_domain_list_are_one_decomposition(self, rng):
        """A list is converted to the rank-ordered table once; the objects are
        a view of its rows; both forms validate, fail and multiply alike."""
        domains = [
            CuboidDomain(rank=2, i_range=(0, 6), j_range=(0, 3), k_range=(0, 8)),
            CuboidDomain(rank=0, i_range=(0, 6), j_range=(3, 6), k_range=(0, 5)),
            CuboidDomain(rank=1, i_range=(0, 6), j_range=(3, 6), k_range=(5, 8)),
        ]
        table = domain_table(domains)
        assert table.dtype == np.int64
        assert table.tolist() == [[0, 0, 6, 3, 6, 0, 5], [1, 0, 6, 3, 6, 5, 8], [2, 0, 6, 0, 3, 0, 8]]
        assert table_domains(table) == sorted(domains, key=lambda d: d.rank)
        assert domain_table(table).tolist() == table.tolist()
        validate_domains(6, 6, 8, domains)
        validate_domains(6, 6, 8, table)
        a, b = rng.standard_normal((6, 8)), rng.standard_normal((8, 6))
        from_list, from_table = cuboid_multiply(a, b, domains), cuboid_multiply(a, b, table)
        assert np.allclose(from_table.matrix, a @ b)
        assert from_table.domains == from_list.domains == tuple(table_domains(table))
        assert (from_table.counters.data == from_list.counters.data).all()
        for extents in ((6, 6, 9), (6, 5, 8)):  # not a tiling; out of bounds
            with pytest.raises(ValueError) as from_objects:
                validate_domains(*extents, domains)
            with pytest.raises(ValueError) as from_rows:
                validate_domains(*extents, table)
            assert str(from_objects.value) == str(from_rows.value)


def _recursive_carma_domains(m, n, k, p):
    """The recursive closure ``carma_domains`` was before it ran level by level."""
    domains = []

    def recurse(i_range, j_range, k_range, ranks):
        lo, hi = ranks
        if hi - lo == 1:
            domains.append(CuboidDomain(rank=lo, i_range=i_range, j_range=j_range, k_range=k_range))
            return
        extents = {"m": i_range[1] - i_range[0], "n": j_range[1] - j_range[0],
                   "k": k_range[1] - k_range[0]}
        # Split the largest dimension (ties broken m, then n, then k).
        dimension = max(extents, key=lambda d: (extents[d], d == "m", d == "n"))
        halves = {"m": i_range, "n": j_range, "k": k_range}
        r0, r1 = halves[dimension]
        mid, mid_ranks = (r0 + r1) // 2, (lo + hi) // 2
        for half, half_ranks in (((r0, mid), (lo, mid_ranks)), ((mid, r1), (mid_ranks, hi))):
            halves[dimension] = half
            recurse(halves["m"], halves["n"], halves["k"], half_ranks)

    recurse((0, m), (0, n), (0, k), (0, largest_power_of_two_at_most(p)))
    return domains


class TestCarma:
    def test_power_of_two_helper(self):
        assert largest_power_of_two_at_most(1) == 1
        assert largest_power_of_two_at_most(2) == 2
        assert largest_power_of_two_at_most(63) == 32
        assert largest_power_of_two_at_most(64) == 64

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_matches_numpy(self, rng, p):
        a = rng.standard_normal((16, 20))
        b = rng.standard_normal((20, 12))
        result = carma_multiply(a, b, p)
        assert np.allclose(result.matrix, a @ b)

    def test_non_power_of_two_rounds_down(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        result = carma_multiply(a, b, 12)
        assert result.p_used == 8
        assert np.allclose(result.matrix, a @ b)

    def test_domains_tile_iteration_space(self):
        domains = carma_domains(16, 24, 32, 8)
        validate_domains(16, 24, 32, domains)

    def test_domains_are_near_cubic(self):
        # CARMA guarantees the longest side is at most twice the shortest
        # (for divisible dimensions).
        domains = carma_domains(64, 64, 64, 64)
        for domain in domains:
            lm, ln, lk = domain.shape
            assert max(lm, ln, lk) <= 2 * min(lm, ln, lk)

    def test_splits_largest_dimension_first(self):
        domains = carma_domains(4, 4, 1024, 2)
        # With k dominating, the first split must divide k.
        assert all(d.shape[2] == 512 for d in domains)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 60), n=st.integers(1, 60), k=st.integers(1, 60), p=st.integers(1, 128),
           clipped=st.booleans())
    @example(m=7, n=7, k=7, p=64, clipped=False)     # three-way ties at every level
    @example(m=5, n=9, k=9, p=32, clipped=False)     # n = k ties; m reaches 1 first
    @example(m=1, n=1, k=3, p=128, clipped=True)     # p > mnk, clipped by usable_ranks
    @example(m=1, n=2, k=1, p=16, clipped=False)     # p > mnk unclipped: empty domains
    def test_level_wise_recursion_equals_the_recursive_closure(self, m, n, k, p, clipped):
        if clipped:
            p = usable_ranks(m, n, k, p)
        table = carma_table(m, n, k, p)
        assert table.dtype == np.int64
        assert table_domains(table) == _recursive_carma_domains(m, n, k, p)
        assert carma_domains(m, n, k, p) == table_domains(table)

    def test_tall_matrix_correctness(self, rng):
        a = rng.standard_normal((4, 128))
        b = rng.standard_normal((128, 4))
        result = carma_multiply(a, b, 8)
        assert np.allclose(result.matrix, a @ b)

    def test_uses_supplied_machine(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        machine = DistributedMachine(4, memory_words=1 << 16)
        result = carma_multiply(a, b, 4, machine=machine)
        assert result.counters is machine.counters
