"""Tests for the COSMA decomposition and blocked data ownership."""

import numpy as np
import pytest

from repro.core.decomposition import build_decomposition, distribute_matrices
from repro.core.grid import ProcessorGrid


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

    def test_plan_and_two_runs_build_one_decomposition(self, monkeypatch):
        from repro.algorithms import get_algorithm, plan_cache_clear
        from repro.core import decomposition as module
        from repro.experiments.harness import run_algorithm
        from repro.workloads.scaling import limited_memory_sweep

        builds = []
        real = module.LocalDomain

        def counting_domain(*args, **kwargs):
            builds.append(kwargs["rank"])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "LocalDomain", counting_domain)
        plan_cache_clear()
        scenario = limited_memory_sweep("square", [16], 2048)[0]
        plan = get_algorithm("COSMA").plan(scenario)
        first = run_algorithm("COSMA", scenario, mode="volume")
        assert run_algorithm("COSMA", scenario, mode="volume") == first
        # One LocalDomain per used rank, once: the plan built them, the
        # planned grid handed to both runs found them memoized.
        assert sorted(builds) == list(range(plan.processors_used))

    def test_fitted_and_explicit_grid_share_the_entry(self):
        from repro.algorithms import plan_cache_clear

        fitted = build_decomposition(64, 64, 64, 8, 4096)
        assert build_decomposition(64, 64, 64, 8, 4096, grid=fitted.grid) is fitted
        plan_cache_clear()
        rebuilt = build_decomposition(64, 64, 64, 8, 4096)
        assert rebuilt == fitted and rebuilt is not fitted
