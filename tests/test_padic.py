import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff.errors import InvalidParameter
from microdiff.padic import (
    binomial_structure_constant_exact,
    divided_lift,
    factorial_valuation,
    level_factorial_ratio_exact,
    residue,
    valuation,
)


def brute_factorial_valuation(p, n):
    v = 0
    for i in range(2, n + 1):
        while i % p == 0:
            i //= p
            v += 1
    return v


class TestValuation:
    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_p_below_2_rejected(self, p):
        # p = 1 used to loop forever on `x % p == 0`
        with pytest.raises(InvalidParameter):
            valuation(3, p)


class TestResidue:
    """residue(c, p^k), the one rational residue of the package (Poly.mod_p,
    reduce_mod, Fpx.from_poly and the standard basis read it), against
    Fraction arithmetic: the r in [0, p^k) with (c - r)/p^k p-integral."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 4),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**4),
    )
    def test_matches_fraction_arithmetic(self, p, k, num, den):
        if den % p == 0:
            den += 1  # a p-unit denominator
        c, mod = Fraction(num, den), p**k
        want = next(r for r in range(mod) if valuation((c - r) / mod, p) >= 0)
        assert residue(c, mod) == want
        assert residue(num, mod) == num % mod

    def test_p_in_the_denominator_raises(self):
        with pytest.raises(ValueError):
            residue(Fraction(1, 6), 9)


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
        assert level_factorial_ratio_exact(2, 0, 1) == 2
        assert level_factorial_ratio_exact(2, 1, 1) == 1
        assert valuation(level_factorial_ratio_exact(3, 0, 2), 3) == 4

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
        assert binomial_structure_constant_exact(2, 1, (2,), (2,)) == 3
        assert binomial_structure_constant_exact(3, 1, (3,), (6,)) == 28

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


@pytest.mark.parametrize("call, args, message", [
    (factorial_valuation, (2, -1), "n must be nonnegative"),
    (level_factorial_ratio_exact, (2, 1, 0), "need 0 <= m <= m'"),
    (level_factorial_ratio_exact, (2, -1, 0), "need 0 <= m <= m'"),
    (binomial_structure_constant_exact, (2, 0, (1,), (1, 1)), "multi-index length mismatch"),
    (binomial_structure_constant_exact, (2, 0, (-1,), (1,)), "multi-indices must be nonnegative"),
], ids=["factorial-negative-n", "ratio-m-above-mprime", "ratio-m-negative",
        "binomial-length-mismatch", "binomial-negative-index"])
def test_bad_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert str(exc.value) == message
