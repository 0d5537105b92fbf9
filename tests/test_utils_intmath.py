"""Tests for repro.utils.intmath."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.intmath import (
    abutting_runs,
    all_factorizations_3d,
    ceil_div,
    closest_divisor,
    divisors,
    factorize,
    isqrt_floor,
    nearly_equal,
    prod,
    round_to_multiple,
    sorted_distinct,
    split_evenly,
    split_offsets,
)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(10, 5) == 2

    def test_rounds_up(self):
        assert ceil_div(10, 3) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 7) == 0

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 2)


class TestProd:
    def test_empty(self):
        assert prod([]) == 1

    def test_values(self):
        assert prod([2, 3, 4]) == 24


class TestIsqrtFloor:
    def test_perfect_square(self):
        assert isqrt_floor(49) == 7

    def test_non_square(self):
        assert isqrt_floor(50) == 7

    def test_zero(self):
        assert isqrt_floor(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            isqrt_floor(-1)


class TestFactorize:
    def test_prime(self):
        assert factorize(13) == {13: 1}

    def test_composite(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_one(self):
        assert factorize(1) == {}

    def test_reconstructs(self):
        n = 98280
        factors = factorize(n)
        reconstructed = 1
        for prime, exponent in factors.items():
            reconstructed *= prime ** exponent
        assert reconstructed == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestDivisors:
    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_prime(self):
        assert divisors(17) == [1, 17]

    def test_one(self):
        assert divisors(1) == [1]

    def test_perfect_square(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_all_divide(self):
        n = 720
        assert all(n % d == 0 for d in divisors(n))

    def test_sorted(self):
        ds = divisors(5040)
        assert ds == sorted(ds)


class TestAllFactorizations3D:
    def test_count_for_prime(self):
        # For a prime p there are exactly 3 ordered triples.
        triples = list(all_factorizations_3d(7))
        assert len(triples) == 3
        assert all(a * b * c == 7 for a, b, c in triples)

    def test_products_correct(self):
        for triple in all_factorizations_3d(24):
            assert triple[0] * triple[1] * triple[2] == 24

    def test_includes_identity_like(self):
        assert (1, 1, 8) in set(all_factorizations_3d(8))
        assert (2, 2, 2) in set(all_factorizations_3d(8))

    def test_no_duplicates(self):
        triples = list(all_factorizations_3d(64))
        assert len(triples) == len(set(triples))


class TestSplitEvenly:
    def test_even(self):
        assert split_evenly(10, 5) == [2, 2, 2, 2, 2]

    def test_uneven(self):
        assert split_evenly(10, 3) == [4, 3, 3]

    def test_more_parts_than_items(self):
        assert split_evenly(2, 4) == [1, 1, 0, 0]

    def test_sum_preserved(self):
        for extent in range(0, 25):
            for parts in range(1, 8):
                assert sum(split_evenly(extent, parts)) == extent

    def test_max_difference_one(self):
        sizes = split_evenly(17, 5)
        assert max(sizes) - min(sizes) <= 1

    def test_offsets_cover_range(self):
        offsets = split_offsets(17, 4)
        assert offsets[0][0] == 0
        assert offsets[-1][1] == 17
        for (_, stop), (start, _) in zip(offsets, offsets[1:]):
            assert stop == start


class TestRoundToMultiple:
    def test_round_up(self):
        assert round_to_multiple(10, 4, up=True) == 12

    def test_round_down(self):
        assert round_to_multiple(10, 4, up=False) == 8

    def test_already_multiple(self):
        assert round_to_multiple(12, 4) == 12


class TestClosestDivisor:
    def test_exact(self):
        assert closest_divisor(12, 4) == 4

    def test_between(self):
        assert closest_divisor(12, 5) == 4  # ties resolved downward

    def test_above_max(self):
        assert closest_divisor(12, 100) == 12


class TestNearlyEqual:
    def test_equal(self):
        assert nearly_equal(1.0, 1.0 + 1e-12)

    def test_not_equal(self):
        assert not nearly_equal(1.0, 1.1)


class TestMathSanity:
    def test_divisor_count_matches_factorization(self):
        n = 3600
        factors = factorize(n)
        expected = math.prod(e + 1 for e in factors.values())
        assert len(divisors(n)) == expected


class TestNeighbourMasks:
    @given(st.lists(st.integers(-5, 5), max_size=30))
    def test_sorted_distinct_is_plain_unique(self, values):
        assert sorted_distinct(np.array(values, dtype=np.int64)).tolist() == sorted(set(values))

    def test_sorted_distinct_flattens(self):
        assert sorted_distinct(np.array([[7, 3], [3, 0]])).tolist() == [0, 3, 7]

    def test_abutting_runs(self):
        lo, hi = np.array([0, 2, 5, 7, 7]), np.array([2, 5, 7, 9, 9])
        first, start, stop = abutting_runs(lo, hi)
        assert (first.tolist(), start.tolist(), stop.tolist()) == ([0, 4], [0, 7], [9, 9])
        # A key change breaks a run even where the ranges abut.
        keys = np.array([[0], [0], [1], [1], [1]])
        first, start, stop = abutting_runs(lo, hi, keys=keys)
        assert (first.tolist(), start.tolist(), stop.tolist()) == ([0, 2, 4], [0, 5, 7], [5, 9, 9])
        empty = np.array([], dtype=np.int64)
        assert [part.tolist() for part in abutting_runs(empty, empty)] == [[], [], []]
