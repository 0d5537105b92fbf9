"""Tests for the COSMA decomposition and blocked data ownership.

A decomposition is its five boundary arrays; these tests hold the arrays to
the paper's blocked layout (``GetDataDecomp``): the local domains tile the
iteration space, each layer's A / B ownership slices partition its k-range,
and each ``(pi, pj)`` fiber has one C owner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import HopMachine, grid

from repro.api import multiply
from repro.core.cosma import cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.simulator import DistributedMachine
from repro.utils.intmath import split_offsets


def _domain_volumes(decomposition):
    """``lm * ln * lk`` of every ``(pi, pj, kk)`` domain, on the grid."""
    lm, ln, lk = (np.diff(bounds) for bounds in (
        decomposition.i_bounds, decomposition.j_bounds, decomposition.k_bounds))
    return lm[:, None, None] * ln[None, :, None] * lk[None, None, :]


def _assert_slices_partition_layers(decomposition):
    """Every layer's A and B ownership slices cut exactly its k-range."""
    k_bounds = decomposition.k_bounds
    for slices, parts in ((decomposition.a_bounds, decomposition.grid.pn),
                          (decomposition.b_bounds, decomposition.grid.pm)):
        assert slices.shape == (decomposition.grid.pk, parts + 1)
        assert (slices[:, 0] == k_bounds[:-1]).all() and (slices[:, -1] == k_bounds[1:]).all()
        assert (np.diff(slices, axis=1) >= 0).all()


class TestBuildDecomposition:
    def test_domains_tile_iteration_space(self):
        decomposition = build_decomposition(24, 18, 12, 8, 4096)
        assert int(_domain_volumes(decomposition).sum()) == 24 * 18 * 12
        for bounds, extent in ((decomposition.i_bounds, 24), (decomposition.j_bounds, 18),
                               (decomposition.k_bounds, 12)):
            assert bounds[0] == 0 and bounds[-1] == extent and (np.diff(bounds) >= 0).all()

    def test_number_of_domains_matches_grid(self):
        decomposition = build_decomposition(24, 18, 12, 8, 4096)
        assert _domain_volumes(decomposition).size == decomposition.grid.p_used

    def test_idle_ranks_listed(self):
        decomposition = build_decomposition(64, 64, 64, 65, 4096, max_idle_fraction=0.03)
        assert decomposition.p_used + len(decomposition.idle_ranks) == 65

    def test_explicit_grid_respected(self):
        grid = ProcessorGrid(2, 2, 1)
        decomposition = build_decomposition(16, 16, 16, 4, 4096, grid=grid)
        assert decomposition.grid.as_tuple() == (2, 2, 1)

    def test_explicit_grid_too_large_rejected(self):
        with pytest.raises(ValueError):
            build_decomposition(16, 16, 16, 4, 4096, grid=ProcessorGrid(2, 2, 2))

    def test_domain_of_unknown_rank(self):
        """An idle rank has no local domain: a run holds nothing on it and
        charges it nothing."""
        decomposition = build_decomposition(64, 64, 64, 65, 4096)
        assert decomposition.idle_ranks == (64,)
        rng = np.random.default_rng(0)
        machine = DistributedMachine(65)
        cosma_run(machine, rng.standard_normal((64, 64)), rng.standard_normal((64, 64)),
                  decomposition)
        assert machine.rank(64).resident_words() == 0 and not machine.counters.data[:, 64].any()
        assert machine.counters.data[:, :64].any(axis=0).all()

    def test_fibers_have_expected_length(self):
        """A j fiber shares one layer's A slices (``pn`` of them), an i fiber
        its B slices (``pm``), a k fiber the ``pk`` layers."""
        decomposition = build_decomposition(16, 16, 16, 12, 4096, grid=ProcessorGrid(2, 3, 2))
        assert decomposition.a_bounds.shape == (2, 3 + 1)
        assert decomposition.b_bounds.shape == (2, 2 + 1)
        assert decomposition.k_bounds.shape == (2 + 1,)

    def test_step_size_fits_memory(self):
        decomposition = build_decomposition(64, 64, 256, 4, 2048)
        lm, ln = int(decomposition.i_bounds[1]), int(decomposition.j_bounds[1])
        assert lm * ln + (lm + ln) * decomposition.step_size <= 2048 + (lm + ln)

    def test_a_ownership_partitions_k_range(self):
        decomposition = build_decomposition(16, 16, 32, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        _assert_slices_partition_layers(decomposition)
        assert decomposition.a_bounds.tolist() == [[0, 8, 16], [16, 24, 32]]

    def test_c_owner_unique_per_ij_block(self):
        """The ``kk = 0`` rank of each ``(pi, pj)`` fiber stores its block, and
        only it: the per-hop reference leaves one ``C_final`` per fiber."""
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((16, 32)), rng.standard_normal((32, 16))
        decomposition = build_decomposition(16, 16, 32, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        machine = HopMachine(8)
        product, _ = grid.cosma(machine, decomposition, a, b)
        owners = [rank for rank in range(8) if "C_final" in machine.stores[rank]]
        assert owners == [0, 2, 4, 6]  # one per (pi, pj) block, at kk = 0
        assert np.allclose(product, a @ b)


class TestLazyDomains:
    """Local domains are never built: they are read off five boundary arrays,
    which equal the rank-by-rank ``GetDataDecomp`` loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 5) for _ in range(3))),
        slack=st.tuples(*(st.integers(0, 13) for _ in range(3))),
        idle=st.integers(0, 2), s=st.integers(1, 400),
    )
    def test_views_equal_the_eager_loop(self, dims, slack, idle, s):
        grid = ProcessorGrid(*dims)
        m, n, k = (parts + extra for parts, extra in zip(dims, slack))  # uneven splits
        decomposition = build_decomposition(m, n, k, grid.p_used + idle, s, grid=grid)
        for bounds, extent, parts in ((decomposition.i_bounds, m, grid.pm),
                                      (decomposition.j_bounds, n, grid.pn),
                                      (decomposition.k_bounds, k, grid.pk)):
            assert [tuple(pair) for pair in zip(bounds.tolist(), bounds[1:].tolist())] == (
                split_offsets(extent, parts))
        for kk, (k0, k1) in enumerate(split_offsets(k, grid.pk)):
            for slices, parts in ((decomposition.a_bounds, grid.pn),
                                  (decomposition.b_bounds, grid.pm)):
                assert slices[kk].tolist() == [k0] + [k0 + hi for _, hi in split_offsets(k1 - k0, parts)]
        _assert_slices_partition_layers(decomposition)
        assert int(_domain_volumes(decomposition).sum()) == m * n * k
        step = decomposition.step_size
        assert decomposition.max_local_words() == max(
            (i1 - i0) * (a1 - a0) + (j1 - j0) * (b1 - b0) + (i1 - i0) * (j1 - j0)
            + (i1 - i0 + j1 - j0) * step
            for pi, (i0, i1) in enumerate(split_offsets(m, grid.pm))
            for pj, (j0, j1) in enumerate(split_offsets(n, grid.pn))
            for kk in range(grid.pk)
            for a0, a1 in [decomposition.a_bounds[kk, pj : pj + 2].tolist()]
            for b0, b1 in [decomposition.b_bounds[kk, pi : pi + 2].tolist()]
        )

    def test_domains_are_never_stored_on_the_shared_decomposition(self):
        """The memoized entry every run of the scenario shares holds the
        boundary arrays only: nothing in it grows with the used ranks."""
        small = build_decomposition(16, 16, 16, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        large = build_decomposition(64, 64, 64, 512, 4096, grid=ProcessorGrid(8, 8, 8))
        for decomposition in (small, large):
            pm, pn, pk = decomposition.grid
            arrays = [value for value in vars(decomposition).values()
                      if isinstance(value, np.ndarray)]
            assert len(arrays) == 5
            assert sum(array.size for array in arrays) == (pm + pn + pk + 3) + pk * (pm + pn + 2)


class TestDistributeMatrices:
    """The initial data layout: every used rank's owned slices of A and B."""

    def test_every_a_element_owned_exactly_once(self):
        m, n, k = 12, 10, 8
        decomposition = build_decomposition(m, n, k, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        a_owners, b_owners = np.zeros((m, k), dtype=int), np.zeros((k, n), dtype=int)
        i_bounds, j_bounds = decomposition.i_bounds, decomposition.j_bounds
        for pi, pj, kk in np.ndindex(decomposition.grid.as_tuple()):
            ak0, ak1 = decomposition.a_bounds[kk, pj : pj + 2]
            bk0, bk1 = decomposition.b_bounds[kk, pi : pi + 2]
            a_owners[i_bounds[pi] : i_bounds[pi + 1], ak0:ak1] += 1
            b_owners[bk0:bk1, j_bounds[pj] : j_bounds[pj + 1]] += 1
        assert (a_owners == 1).all() and (b_owners == 1).all()

    def test_owned_pieces_match_global_matrix(self, rng):
        """The per-hop reference stores every rank's slices of the global inputs."""
        m, n, k = 12, 10, 8
        decomposition = build_decomposition(m, n, k, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        machine = HopMachine(9)
        grid.put_owned_blocks(machine, decomposition, a, b, "A", "B", "C")
        a_seen, b_seen = np.zeros_like(a), np.zeros_like(b)
        i_bounds, j_bounds = decomposition.i_bounds, decomposition.j_bounds
        for rank in range(8):
            pi, pj, kk = np.unravel_index(rank, (2, 2, 2))
            i0, i1 = i_bounds[pi : pi + 2]
            j0, j1 = j_bounds[pj : pj + 2]
            ak0, ak1 = decomposition.a_bounds[kk, pj : pj + 2]
            bk0, bk1 = decomposition.b_bounds[kk, pi : pi + 2]
            a_seen[i0:i1, ak0:ak1] += machine.get(rank, "A")
            b_seen[bk0:bk1, j0:j1] += machine.get(rank, "B")
            assert machine.get(rank, "C").shape == (i1 - i0, j1 - j0)
        assert np.array_equal(a_seen, a) and np.array_equal(b_seen, b)
        assert not machine.stores[8]  # the idle rank holds nothing

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="inner dimensions do not match"):
            multiply(rng.standard_normal((4, 4)), rng.standard_normal((8, 8)), 4, 4096)

    def test_max_local_words_reasonable(self):
        decomposition = build_decomposition(32, 32, 32, 8, 4096)
        assert decomposition.max_local_words() > 0
        assert decomposition.max_local_words() <= 32 * 32 * 3


class TestDecompositionMemo:
    """Planning and every run of one scenario share a single decomposition."""

    def test_plan_and_two_runs_build_one_decomposition(self):
        from repro.algorithms import get_algorithm, plan_cache_clear
        from repro.core import decomposition as module
        from repro.experiments.harness import run_algorithm
        from repro.workloads.scaling import limited_memory_sweep

        plan_cache_clear()
        scenario = limited_memory_sweep("square", [16], 2048)[0]
        plan = get_algorithm("COSMA").plan(scenario)
        first = run_algorithm("COSMA", scenario, mode="volume")
        assert run_algorithm("COSMA", scenario, mode="volume") == first
        # Decomposed once: the plan did it, and both runs, on the memoized
        # plan's grid, found the entry memoized.
        info = module._decompose.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert build_decomposition(
            scenario.shape.m, scenario.shape.n, scenario.shape.k, scenario.p,
            scenario.memory_words, grid=ProcessorGrid(*plan.grid),
        ).p_used == plan.processors_used

    def test_campaign_runs_reuse_the_decompositions_pruning_built(self, tmp_path):
        """The pruning pass plans every request before any runs; each grid-family
        run then finds its plan's decomposition instead of rebuilding it."""
        from repro.algorithms import plan_cache_clear
        from repro.core import decomposition as module
        from repro.sweeps import SweepSpec, run_campaign

        spec = SweepSpec(
            name="memo", algorithms=("COSMA", "ScaLAPACK", "CTF"),
            families=("square", "largeK"), regimes=("limited",),
            p_values=(4, 9, 16, 25), memory_words=1024, mode="volume",
        )
        plan_cache_clear()
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert result.pruned == 0 and result.executed == len(spec.expand()) == 24
        info = module._decompose.cache_info()
        # One miss per distinct decomposition (every entry is still held),
        # and at least one hit per run.
        assert info.misses == info.currsize <= 24
        assert info.hits >= result.executed

    def test_fitted_and_explicit_grid_share_the_entry(self):
        from repro.algorithms import plan_cache_clear

        fitted = build_decomposition(64, 64, 64, 8, 4096)
        assert build_decomposition(64, 64, 64, 8, 4096, grid=fitted.grid) is fitted
        plan_cache_clear()
        rebuilt = build_decomposition(64, 64, 64, 8, 4096)
        assert rebuilt == fitted and rebuilt is not fitted
