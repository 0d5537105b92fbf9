"""Tests for Algorithm 1's schedule derivation (lines 1-2, Equation 32).

``FindSeqSchedule`` gives the local-domain width ``a`` and
``ParallelizeSched`` its depth ``b``; both are
:func:`repro.core.cost_model.cosma_local_domain`.
"""

import pytest

from repro.core.cost_model import cosma_local_domain


class TestFindSequentialSchedule:
    def test_limited_memory_gives_sqrt_s(self):
        # Large problem, small memory: a = sqrt(S).
        a, _ = cosma_local_domain(1024, 1024, 1024, 16, 256)
        assert a == pytest.approx(16.0)

    def test_extra_memory_gives_cubic_root(self):
        a, _ = cosma_local_domain(64, 64, 64, 8, 1 << 20)
        assert a == pytest.approx((64 ** 3 / 8) ** (1 / 3))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cosma_local_domain(4, 4, 4, 2, 0)


class TestParallelizeSchedule:
    def test_limited_memory_depth(self):
        m = n = k = 1024
        p, s = 16, 256
        _, b = cosma_local_domain(m, n, k, p, s)
        assert b == pytest.approx(m * n * k / (p * s))

    def test_extra_memory_cubic(self):
        a, b = cosma_local_domain(64, 64, 64, 8, 1 << 20)
        assert a == pytest.approx(b)
