"""Tests for the COSMA decomposition and blocked data ownership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    LocalDomain,
    build_decomposition,
    distribute_matrices,
)
from repro.core.grid import ProcessorGrid
from repro.utils.intmath import split_offsets


class TestBuildDecomposition:
    def test_domains_tile_iteration_space(self):
        decomposition = build_decomposition(24, 18, 12, 8, 4096)
        total = sum(d.volume for d in decomposition.domains)
        assert total == 24 * 18 * 12

    def test_number_of_domains_matches_grid(self):
        decomposition = build_decomposition(24, 18, 12, 8, 4096)
        assert len(decomposition.domains) == decomposition.grid.p_used

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

    def test_coords_to_rank_roundtrip(self):
        decomposition = build_decomposition(16, 16, 16, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        seen = set()
        for domain in decomposition.domains:
            rank = decomposition.coords_to_rank(*domain.coords)
            assert rank == domain.rank
            seen.add(rank)
        assert seen == set(range(8))

    def test_fibers_have_expected_length(self):
        decomposition = build_decomposition(16, 16, 16, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        assert len(decomposition.j_fiber(0, 0)) == 2
        assert len(decomposition.i_fiber(0, 0)) == 2
        assert len(decomposition.k_fiber(0, 0)) == 2

    def test_domain_of_unknown_rank(self):
        decomposition = build_decomposition(64, 64, 64, 65, 4096)
        if decomposition.idle_ranks:
            with pytest.raises(KeyError):
                decomposition.domain_of(decomposition.idle_ranks[0])

    def test_step_size_fits_memory(self):
        decomposition = build_decomposition(64, 64, 256, 4, 2048)
        domain = decomposition.domains[0]
        lm = domain.i_range[1] - domain.i_range[0]
        ln = domain.j_range[1] - domain.j_range[0]
        assert lm * ln + (lm + ln) * decomposition.step_size <= 2048 + (lm + ln)

    def test_a_ownership_partitions_k_range(self):
        decomposition = build_decomposition(16, 16, 32, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        for pi in range(2):
            for pk in range(2):
                fiber = decomposition.j_fiber(pi, pk)
                owned = [decomposition.domain_of(r).a_owned_k_range for r in fiber]
                covered = sorted(owned)
                k_range = decomposition.domain_of(fiber[0]).k_range
                assert covered[0][0] == k_range[0]
                assert covered[-1][1] == k_range[1]
                for (lo_a, hi_a), (lo_b, _hi_b) in zip(covered, covered[1:]):
                    assert hi_a == lo_b

    def test_c_owner_unique_per_ij_block(self):
        decomposition = build_decomposition(16, 16, 32, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        owners = [d for d in decomposition.domains if d.owns_c]
        assert len(owners) == 4  # one per (pi, pj) block


def _eager_domains(m, n, k, grid):
    """``GetDataDecomp`` rank by rank: the loop the boundary arrays replaced."""
    domains = []
    for pi, i_range in enumerate(split_offsets(m, grid.pm)):
        for pj, j_range in enumerate(split_offsets(n, grid.pn)):
            for pk, (k0, k1) in enumerate(split_offsets(k, grid.pk)):
                a_lo, a_hi = split_offsets(k1 - k0, grid.pn)[pj]
                b_lo, b_hi = split_offsets(k1 - k0, grid.pm)[pi]
                domains.append(LocalDomain(
                    rank=(pi * grid.pn + pj) * grid.pk + pk, coords=(pi, pj, pk),
                    i_range=i_range, j_range=j_range, k_range=(k0, k1),
                    a_owned_k_range=(k0 + a_lo, k0 + a_hi),
                    b_owned_k_range=(k0 + b_lo, k0 + b_hi), owns_c=(pk == 0),
                ))
    return tuple(domains)


class TestLazyDomains:
    """``domains`` / ``domain_of`` / ``max_local_words`` are views of five boundary arrays."""

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
        eager = _eager_domains(m, n, k, grid)
        assert decomposition.domains == eager
        assert all(type(bound) is int for domain in decomposition.domains
                   for bound in domain.i_range + domain.k_range + domain.a_owned_k_range)
        assert [decomposition.domain_of(d.rank) for d in eager] == list(eager)
        for rank in (-1, *decomposition.idle_ranks, decomposition.p):
            with pytest.raises(KeyError):
                decomposition.domain_of(rank)
        step = decomposition.step_size
        assert decomposition.max_local_words() == max(
            lm * (d.a_owned_k_range[1] - d.a_owned_k_range[0])
            + ln * (d.b_owned_k_range[1] - d.b_owned_k_range[0])
            + lm * ln + (lm + ln) * step
            for d in eager for lm, ln, _lk in [d.shape]
        )

    def test_domains_are_never_stored_on_the_shared_decomposition(self):
        decomposition = build_decomposition(16, 16, 16, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        domains = decomposition.domains
        assert decomposition.domain_of(7) == domains[7]
        # The memoized entry every run of the scenario shares holds the
        # boundary arrays only: reading the per-rank view stores nothing.
        assert not {"domains", "_bounds"} & set(vars(decomposition))
        assert decomposition.domains == domains and decomposition.domains is not domains


class TestDistributeMatrices:
    def test_every_a_element_owned_exactly_once(self, rng):
        m, n, k = 12, 10, 8
        decomposition = build_decomposition(m, n, k, 8, 4096, grid=ProcessorGrid(2, 2, 2))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        owned = distribute_matrices(decomposition, a, b)
        total_a = sum(pieces["A"].size for pieces in owned.values())
        total_b = sum(pieces["B"].size for pieces in owned.values())
        assert total_a == m * k
        assert total_b == k * n

    def test_owned_pieces_match_global_matrix(self, rng):
        m, n, k = 12, 10, 8
        decomposition = build_decomposition(m, n, k, 4, 4096, grid=ProcessorGrid(2, 2, 1))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        owned = distribute_matrices(decomposition, a, b)
        reconstructed = np.zeros_like(a)
        for domain in decomposition.domains:
            i0, i1 = domain.i_range
            ak0, ak1 = domain.a_owned_k_range
            reconstructed[i0:i1, ak0:ak1] = owned[domain.rank]["A"]
        assert np.allclose(reconstructed, a)

    def test_shape_mismatch_rejected(self, rng):
        decomposition = build_decomposition(8, 8, 8, 4, 4096)
        with pytest.raises(ValueError):
            distribute_matrices(decomposition, rng.standard_normal((4, 4)), rng.standard_normal((8, 8)))

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
        # Decomposed once: the plan did it, the planned grid handed to both
        # runs found the entry memoized.
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
