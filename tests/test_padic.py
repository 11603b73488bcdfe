import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff.padic import (
    PadicScalar,
    binomial_structure_constant_exact,
    divided_lift,
    factorial_valuation,
    level_factorial_ratio,
    level_factorial_ratio_exact,
    padic_binomial_constant,
    reduce_mod_precision,
    valuation,
)


def brute_factorial_valuation(p, n):
    v = 0
    for i in range(2, n + 1):
        while i % p == 0:
            i //= p
            v += 1
    return v


class TestFactorialValuation:
    def test_zero(self):
        assert factorial_valuation(2, 0) == 0

    def test_frozen_values(self):
        assert factorial_valuation(2, 4) == 3
        assert factorial_valuation(3, 9) == 4

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_brute_force(self, p):
        # spot-check small n exactly, then strided coverage up to 10^4
        for n in list(range(0, 200)) + list(range(200, 10001, 97)):
            assert factorial_valuation(p, n) == brute_factorial_valuation(p, n)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_direct_valuation(self, p):
        for n in range(0, 60):
            assert factorial_valuation(p, n) == valuation(math.factorial(n), p)


class TestLevelFactorialRatio:
    def test_frozen_values(self):
        r = level_factorial_ratio(2, 0, 1)
        assert r.e == 1 and r.congruent_to(2)
        assert level_factorial_ratio(2, 1, 1).congruent_to(1)
        assert level_factorial_ratio(3, 0, 2).e == 4

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_valuation_law(self, p):
        for m in range(5):
            for mp in range(m, 5):
                j = mp - m
                want = (p**j - 1) // (p - 1)
                assert valuation(level_factorial_ratio_exact(p, m, mp), p) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cocycle_law(self, p):
        # r_{m,m''} = r_{m',m''} * r_{m,m'}^(p^(m''-m')), exactly in Q
        for m in range(4):
            for m1 in range(m, 4):
                for m2 in range(m1, 4):
                    lhs = level_factorial_ratio_exact(p, m, m2)
                    rhs = level_factorial_ratio_exact(p, m1, m2) * (
                        level_factorial_ratio_exact(p, m, m1) ** (p ** (m2 - m1))
                    )
                    assert lhs == rhs


class TestBinomialConstant:
    def test_frozen_level1(self):
        assert padic_binomial_constant(2, 1, (2,), (2,)).congruent_to(3)
        assert padic_binomial_constant(3, 1, (3,), (6,)).congruent_to(28)

    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.sampled_from([2, 3, 5]),
    )
    def test_level0_is_trivial(self, k, kp, p):
        # at level 0 the basis elements are the plain powers of the derivation
        c = binomial_structure_constant_exact(p, 0, (k,), (kp,))
        assert c == 1

    @given(
        st.integers(0, 30),
        st.integers(0, 30),
        st.sampled_from([2, 3]),
        st.integers(0, 3),
    )
    def test_against_rational_lift_oracle(self, k, kp, p, m):
        # c = lift(k) * lift(k') / lift(k+k') where lift(k) is the constant
        # expressing the divided basis element through the plain power
        c = binomial_structure_constant_exact(p, m, (k,), (kp,))
        want = divided_lift(k, p, m) * divided_lift(kp, p, m) / divided_lift(k + kp, p, m)
        assert c == want

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_integrality_exhaustive(self, p, m):
        for k in range(33):
            for kp in range(33):
                c = binomial_structure_constant_exact(p, m, (k,), (kp,))
                assert valuation(c, p) >= 0

    def test_multiindex_is_product(self):
        c2 = binomial_structure_constant_exact(2, 1, (2, 3), (5, 1))
        a = binomial_structure_constant_exact(2, 1, (2,), (5,))
        b = binomial_structure_constant_exact(2, 1, (3,), (1,))
        assert c2 == a * b


class TestPadicScalar:
    def test_reduce_examples(self):
        s = reduce_mod_precision(Fraction(1, 3), 2, 4)
        assert s.e == 0 and s.u == 11
        assert reduce_mod_precision(0, 2, 4).is_zero()
        t = reduce_mod_precision(Fraction(4, 6), 2, 3)
        assert t.e == 1 and t.u == 3

    def test_negative_exponent_allowed(self):
        s = reduce_mod_precision(Fraction(1, 4), 2, 5)
        assert s.e == -2 and s.u == 1

    def test_add_and_mul(self):
        p = 5
        a = reduce_mod_precision(Fraction(7, 2), p, 8)
        b = reduce_mod_precision(Fraction(-3, 4), p, 8)
        assert (a * b).congruent_to(Fraction(-21, 8))
        assert (a + b).congruent_to(Fraction(11, 4))
        assert (a - a).is_zero()

    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.sampled_from([2, 3, 5]),
        st.integers(2, 12),
    )
    @settings(max_examples=150)
    # sums that cancel to zero at the known precision: the zero keeps the
    # absolute precision of its summands, which may be <= 0
    @example(Fraction(-3, 2), Fraction(1, 14), 2, 2)
    @example(Fraction(1, 4), Fraction(3, 4), 2, 2)
    def test_arithmetic_tracks_rationals(self, x, y, p, N):
        # only p-invertible denominators after p-extraction are in scope
        a = PadicScalar.from_rational(x, p, N)
        b = PadicScalar.from_rational(y, p, N)
        assert (a * b).congruent_to(x * y)
        assert (a + b).congruent_to(x + y)

    @given(
        st.fractions(max_denominator=30),
        st.fractions(max_denominator=30),
        st.sampled_from([2, 3]),
        st.integers(2, 6),
        st.integers(1, 6),
    )
    @settings(max_examples=100)
    def test_precision_monotonicity(self, x, y, p, low, extra):
        high = low + extra
        lo = PadicScalar.from_rational(x, p, low) * PadicScalar.from_rational(y, p, low)
        hi = PadicScalar.from_rational(x, p, high) * PadicScalar.from_rational(y, p, high)
        cut = hi.truncate(low)
        if lo.is_zero():
            assert cut.is_zero() or cut.e >= lo.N
        else:
            assert cut.e == lo.e and cut.u == lo.u

    def test_unit_must_be_coprime(self):
        with pytest.raises(ValueError):
            PadicScalar(2, 0, 4, 3)
