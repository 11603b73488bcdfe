from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff.diffop import DiffOp, build_theta_tilde, render_diffop
from microdiff.padic import (
    binomial_structure_constant_exact,
    divided_lift,
    level_factorial_ratio_exact,
    valuation,
)
from microdiff.errors import InvalidParameter, LevelMismatch, NotHomogeneous
from microdiff.microloc import MicroOp
from microdiff.polynomials import Poly
from microdiff.pseudopoly import (
    MAX_LOCALIZER_ORDER,
    SymbolPoly,
    check_theta,
    digit_decomposition,
    digit_form,
    digit_monomial_constant,
    digits_to_k,
    leading_divides,
    leading_lcm,
    normalize,
    rational_level_change,
    theta_variants,
)


def plain_lift_value(f: SymbolPoly):
    """Oracle: image in Q[x][xi] under xi^<m><k> -> (q_k!/k!) xi^k."""
    return {k: c.scale_const if False else c for k, c in f.to_plain().terms.items()}


def symbols_equal_via_lift(f, g):
    return f.to_plain().terms == g.to_plain().terms


class TestDigits:
    def test_decomposition_roundtrip(self):
        for p in (2, 3):
            for m in (0, 1, 2):
                for k in range(0, 60):
                    d = digit_decomposition(k, p, m)
                    assert len(d) == m + 1
                    assert all(c < p for c in d[:-1])
                    assert digits_to_k(d, p) == k

    def test_normal_form_constant_is_unit(self):
        for p in (2, 3):
            for m in (1, 2):
                for k in range(0, 40):
                    _, u = digit_form(k, p, m)
                    assert valuation(u, p) == 0

    def test_square_of_small_generator(self):
        # (xi^<1><1>)^2 = 2 xi^<1><2> at p=2
        u = digit_monomial_constant((2, 0), 2, 1)
        assert u == 2

    def test_square_of_top_generator(self):
        # (xi^<1><2>)^2 = 3 xi^<1><4> at p=2 (digit c_1=2 stays, k-basis constant 3)
        u = digit_monomial_constant((0, 2), 2, 1)
        assert u == 3

    def test_one_digit_per_generator(self):
        with pytest.raises(ValueError, match=r"^need one digit per generator index 0\.\.m$"):
            digit_monomial_constant((1,), 2, 1)

    def test_overflow_carry_constant(self):
        # relation constant (p^(i+1))!/(p^i!)^p has valuation exactly 1
        for p in (2, 3, 5):
            for i in range(3):
                c = divided_lift(p**i, p, i + 1) ** p / divided_lift(p ** (i + 1), p, i + 1)
                assert valuation(c, p) == 1


def divides_by_unit_constant(a, n, p, m):
    """Oracle: xi^<m><a> divides xi^<m><n> up to a unit iff a <= n and the
    structure constant of xi^<m><n-a> * xi^<m><a> is a p-adic unit (the rule
    the standard-basis reduction used to memoize)."""
    return a <= n and valuation(binomial_structure_constant_exact(p, m, (n - a,), (a,)), p) == 0


PRIMES_AND_LEVELS = st.tuples(st.sampled_from([2, 3, 5]), st.integers(0, 3))


class TestLeadingOrder:
    """The level-m leading-term order of ``leading_divides`` and its lcm."""

    @settings(max_examples=300, deadline=None)
    @given(PRIMES_AND_LEVELS, st.integers(0, 300), st.integers(0, 300))
    def test_divides_iff_the_structure_constant_is_a_unit(self, pm, a, n):
        p, m = pm
        assert leading_divides(a, n, p, m) == divides_by_unit_constant(a, n, p, m)

    @settings(max_examples=200, deadline=None)
    @given(PRIMES_AND_LEVELS, st.integers(0, 60), st.integers(0, 60))
    def test_lcm_is_the_least_upper_bound(self, pm, a, b):
        p, m = pm
        n = leading_lcm(a, b, p, m)
        assert leading_divides(a, n, p, m) and leading_divides(b, n, p, m)
        # every common multiple up to a + b, which is one, lies above n
        for c in range(a + b + 1):
            if leading_divides(a, c, p, m) and leading_divides(b, c, p, m):
                assert leading_divides(n, c, p, m)

    @settings(max_examples=200, deadline=None)
    @given(PRIMES_AND_LEVELS, st.lists(st.integers(0, 200), min_size=3, max_size=3))
    def test_divides_is_transitive(self, pm, axy):
        # a chain a, b, c of multiples, built through the lcm
        p, m = pm
        a, x, y = axy
        b = leading_lcm(a, x, p, m)
        c = leading_lcm(b, y, p, m)
        assert leading_divides(a, b, p, m) and leading_divides(b, c, p, m)
        assert leading_divides(a, c, p, m)

    @pytest.mark.parametrize("p,m,a,b,n", [
        (3, 0, 2, 3, 3),  # level 0: the plain max, not the digit-wise 5
        (2, 0, 1, 2, 2),
        (2, 1, 1, 2, 3),  # one low digit: 1 = (1, 0) and 2 = (0, 1)
        (3, 1, 5, 7, 8),  # (2, 1) and (1, 2) give (2, 2)
    ])
    def test_lcm_by_hand(self, p, m, a, b, n):
        assert leading_lcm(a, b, p, m) == n


class TestNormalize:
    def test_level0_no_relations(self):
        f = normalize(2, 0, 1, {((5,),): 1})
        assert f == SymbolPoly.xi(2, 0, 5)

    def test_full_overflow_example(self):
        # (xi^<1><1>)^2 at p=2: digits (2,0) -> 2*xi^<1><2>
        f = normalize(2, 1, 1, {((2, 0),): 1})
        assert f == SymbolPoly.xi(2, 1, 2).scale(2)

    def test_idempotent_and_order_preserving(self):
        f = normalize(3, 1, 1, {((4, 2),): Fraction(5)})
        (k,) = f.terms
        assert sum(k) == 4 + 2 * 3
        # renormalizing the normal form is the identity
        digits = digit_decomposition(k[0], 3, 1)
        g = normalize(3, 1, 1, {((digits,))[0:1]: list(f.terms.values())[0]})
        # constant from normal digits is a unit; dividing back recovers f
        u = digit_monomial_constant(digits, 3, 1)
        assert g.scale(Fraction(1) / u).terms.keys() == f.terms.keys()


class TestMultiply:
    def test_identity(self):
        f = SymbolPoly(2, 1, 1, {(3,): Poly.from_univariate([1, 2])})
        assert f * SymbolPoly.one(2, 1) == f

    def test_xi12_times_xi11(self):
        f = SymbolPoly.xi(2, 1, 2) * SymbolPoly.xi(2, 1, 1)
        # constant binom(3,1)*q_1!*q_2!/q_3! = 3*1*1/1 = 3
        assert f == SymbolPoly.xi(2, 1, 3).scale(3)

    def test_grading(self):
        f = SymbolPoly.xi(3, 1, 4)
        g = SymbolPoly.xi(3, 1, 5)
        assert (f * g).degree() == 9

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            SymbolPoly.xi(2, 0) * SymbolPoly.xi(2, 1)

    def test_negative_power_rejected(self):
        # square-and-multiply on n = -1 never ends, since -1 >> 1 == -1
        with pytest.raises(ValueError):
            SymbolPoly.xi(2, 0) ** -1

    def test_agrees_with_plain_lift(self):
        for p, m in [(2, 1), (2, 2), (3, 1)]:
            for k1 in range(7):
                for k2 in range(7):
                    f = SymbolPoly.xi(p, m, k1) if k1 else SymbolPoly.one(p, m)
                    g = SymbolPoly.xi(p, m, k2) if k2 else SymbolPoly.one(p, m)
                    lhs = (f * g).to_plain()
                    rhs_c = divided_lift(k1, p, m) * divided_lift(k2, p, m)
                    assert lhs.coefficient((k1 + k2,)).constant_term() == rhs_c

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_assoc_comm(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        m = data.draw(st.integers(0, 2))

        def rand_sym():
            nterms = data.draw(st.integers(1, 3))
            terms = {}
            for _ in range(nterms):
                k = data.draw(st.integers(0, 9))
                c = data.draw(st.integers(-4, 4))
                xdeg = data.draw(st.integers(0, 2))
                terms[(k,)] = terms.get((k,), Poly.zero(1)) + Poly(1, {(xdeg,): c})
            return SymbolPoly(p, m, 1, terms)

        f, g, h = rand_sym(), rand_sym(), rand_sym()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


class TestTermAlgebra:
    """The structure SymbolPoly shares with DiffOp."""

    TERMS2 = {(1, 2): Poly.var(0, 2) + Poly.const(1, 2), (0, 0): 3,
              (2, 0): Poly.var(1, 2).scale(-1), (0, 1): Poly.var(0, 2).scale(Fraction(1, 2))}
    TERMS1 = {(3,): Poly.var() + Poly.const(-1), (0,): -2, (1,): Poly.var()}

    def test_symbol_rendering(self):
        assert str(SymbolPoly(2, 0, 2, self.TERMS2)) == (
            "3 + 1/2*x1*xi2 - x2*xi1^2 + (1 + x1)*xi1*xi2^2")
        assert str(SymbolPoly(3, 0, 1, self.TERMS1)) == "-2 + x*xi + (-1 + x)*xi^3"
        assert str(SymbolPoly(3, 1, 1, self.TERMS1)) == "-2 + x*xi1[1] + (-1 + x)*xi1[3]"
        assert str(SymbolPoly.zero(2, 0)) == "0"
        assert str(SymbolPoly(2, 0, 1, {(1,): -1, (2,): 1})) == "-xi + xi^2"

    def test_symbol_rendering_names_coordinates_like_operators(self):
        # at d >= 2 the coordinate is 1-based and kept apart from the level,
        # as in render_diffop's D1[1,1] and the parser's xi<j>
        assert str(SymbolPoly(2, 1, 2, {(1, 2): 1})) == "xi1[1,1]*xi2[1,2]"
        assert str(SymbolPoly(2, 1, 2, self.TERMS2)) == (
            "3 + 1/2*x1*xi2[1,1] - x2*xi1[1,2] + (1 + x1)*xi1[1,1]*xi2[1,2]")

    def test_operator_rendering(self):
        # an operator prints as it renders
        for P, text in [
            (DiffOp(2, 0, 2, self.TERMS2), "3 + 1/2*x1*d2 - x2*d1^2 + (1 + x1)*d1*d2^2"),
            (DiffOp(2, 1, 2, self.TERMS2),
             "3 + 1/2*x1*D2[1,1] - x2*D1[1,2] + (1 + x1)*D1[1,1]*D2[1,2]"),
            (DiffOp(3, 1, 1, self.TERMS1), "-2 + x1*D1[1,1] + (-1 + x1)*D1[1,3]"),
            # a -1 coefficient prints as a sign, as in Poly
            (DiffOp(2, 0, 1, {(0,): Poly.var(), (2,): -1}), "x1 - d1^2"),
        ]:
            assert render_diffop(P) == str(P) == repr(P) == text

    def test_equality_keeps_the_ring(self):
        assert DiffOp.dx(2, 0) != SymbolPoly.xi(2, 0)
        assert SymbolPoly.xi(2, 0) != DiffOp.dx(2, 0)
        assert SymbolPoly.one(2, 0) == 1 and SymbolPoly.xi(2, 0) != 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 2),
        st.integers(1, 2),
    )
    @example(0, 2, 0, 1)
    @example(Fraction(0), 3, 2, 2)
    def test_a_scalar_hashes_as_its_number(self, c, p, m, d):
        # __eq__ lifts a number, so a set or dict must not tell them apart
        for x in (Poly.const(c, d), DiffOp.scalar(c, p, m, d), SymbolPoly.scalar(c, p, m, d)):
            assert x == c
            assert hash(x) == hash(c)
            assert len({x, c}) == 1

    def test_symbol_and_operator_never_combine(self):
        xi, d = SymbolPoly.xi(2, 0), DiffOp.dx(2, 0)
        for combine in (lambda: xi + d, lambda: d + xi, lambda: xi - d,
                        lambda: xi * d, lambda: d * xi):
            with pytest.raises(LevelMismatch, match="cannot combine a"):
                combine()

    def test_to_plain_shapes(self):
        f = SymbolPoly(2, 1, 1, self.TERMS1)
        assert f.to_plain().m == 0
        assert DiffOp(2, 1, 1, self.TERMS1).to_plain() == f.to_plain().terms


class TestRationalLevelChange:
    def test_generator_rule(self):
        f = rational_level_change(SymbolPoly.xi(2, 0, 1), 1)
        assert f == SymbolPoly.xi(2, 1, 1)

    def test_xi02(self):
        f = rational_level_change(SymbolPoly.xi(2, 0, 2), 1)
        assert f == SymbolPoly.xi(2, 1, 2).scale(2)

    def test_roundtrip_and_composition(self):
        f = SymbolPoly(3, 0, 1, {(7,): Poly.from_univariate([2, 1]), (2,): Poly.const(5)})
        up = rational_level_change(f, 2)
        assert rational_level_change(up, 0) == f
        via1 = rational_level_change(rational_level_change(f, 1), 2)
        assert via1 == up

    @given(st.integers(0, 12), st.integers(0, 12), st.sampled_from([2, 3]))
    @settings(max_examples=40)
    def test_ring_homomorphism(self, k1, k2, p):
        f, g = SymbolPoly.xi(p, 0, k1), SymbolPoly.xi(p, 0, k2)
        lhs = rational_level_change(f * g, 2)
        rhs = rational_level_change(f, 2) * rational_level_change(g, 2)
        assert lhs == rhs


class TestThetaVariants:
    def test_theta_xi_p2(self):
        theta = SymbolPoly.xi(2, 0)
        hi, lo = theta_variants(theta, 0, 1)
        assert hi == SymbolPoly.xi(2, 1, 2)
        assert lo == SymbolPoly.xi(2, 0, 2)  # xi^2 at level 0
        # xi^2 = 2 * xi^<1><2>
        assert rational_level_change(lo, 1) == hi.scale(2)

    def test_m_equals_mprime(self):
        theta = SymbolPoly.xi(3, 0)
        hi, lo = theta_variants(theta, 1, 1)
        assert rational_level_change(lo, 1) == rational_level_change(lo, 1)
        assert hi.m == 1 and lo.m == 1

    def test_x_xi_squared_p3(self):
        theta = SymbolPoly(3, 0, 1, {(2,): Poly.var()})  # x * xi^2
        hi, _ = theta_variants(theta, 1, 1)
        assert hi.m == 1
        assert hi == (SymbolPoly.xi(3, 1, 3) ** 2).scale(Poly.var(power=3))
        (k,) = hi.terms
        assert k == (6,)
        assert hi.is_homogeneous() and hi.degree() == 6

    def test_r_constant_identity_random(self):
        # Theta^(m,m') = r_{m,m'}^n * Theta^(m') after moving to level m
        import random

        rng = random.Random(7)
        for _ in range(20):
            p = rng.choice([2, 3])
            d = rng.choice([1, 2])
            n = rng.randint(1, 3)
            m = rng.randint(0, 1)
            mp = rng.randint(m, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                parts = [0] * d
                rem = n
                for j in range(d - 1):
                    parts[j] = rng.randint(0, rem)
                    rem -= parts[j]
                parts[-1] = rem
                xexp = tuple(rng.randint(0, 2) for _ in range(d))
                terms[tuple(parts)] = Poly(d, {xexp: rng.randint(1, 5)})
            theta = SymbolPoly(p, 0, d, terms)
            hi, lo = theta_variants(theta, m, mp)
            r = level_factorial_ratio_exact(p, m, mp)
            assert lo == rational_level_change(hi, m).scale(r**n)

    def test_not_homogeneous(self):
        bad = SymbolPoly(2, 0, 1, {(1,): Poly.const(1), (2,): Poly.const(1)})
        with pytest.raises(NotHomogeneous):
            theta_variants(bad, 0, 1)

    def test_theta_above_level_0_rejected(self):
        with pytest.raises(LevelMismatch, match="^theta must be a level-0 symbol$"):
            check_theta(SymbolPoly.xi(2, 1), 1, 1)

    def test_degree_zero_rejected(self):
        with pytest.raises(NotHomogeneous):
            theta_variants(SymbolPoly.one(2, 0), 0, 1)

    def test_level_outside_range_rejected(self):
        # one theta check: theta_variants, the localizer and MicroOp agree
        xi = SymbolPoly.xi(2, 0)
        for m, mp in [(2, 1), (-1, 0)]:
            for build in (theta_variants, build_theta_tilde, MicroOp):
                with pytest.raises(LevelMismatch):
                    build(xi, m, mp)

    def test_localizer_order_above_cap_rejected(self):
        # n*p^m' = 2^15 at theta = xi, p = 2; a huge m' is refused as fast
        xi = SymbolPoly.xi(2, 0)
        for mp in (15, 10**12):
            for build in (theta_variants, build_theta_tilde, MicroOp):
                with pytest.raises(InvalidParameter, match="localizer order"):
                    build(xi, 0, mp)
        assert build_theta_tilde(xi, 0, 14).order == MAX_LOCALIZER_ORDER


def theta_variants_by_powers(theta, m, mprime):
    """theta_variants as its own power loop built it, before it went
    through normalize: the oracle of the fold."""
    check_theta(theta, m, mprime)
    p, d = theta.p, theta.d
    q = p**mprime
    j = mprime - m
    hi = SymbolPoly.zero(p, mprime, d)
    lo = SymbolPoly.zero(p, m, d)
    for k, a in theta.terms.items():
        twisted = a**q
        hi_mono = SymbolPoly.one(p, mprime, d)
        lo_mono = SymbolPoly.one(p, m, d)
        for coord, kj in enumerate(k):
            if kj:
                hi_mono = hi_mono * SymbolPoly.xi(p, mprime, q, coord, d) ** kj
                lo_mono = lo_mono * SymbolPoly.xi(p, m, p**m, coord, d) ** (kj * p**j)
        hi = hi + hi_mono.scale(twisted)
        lo = lo + lo_mono.scale(twisted)
    return hi, lo


@st.composite
def localizer_symbols(draw):
    """(theta, m, m'): p in {2, 3, 5}, d in {1, 2}, 0 <= m <= m' <= 3, theta
    homogeneous of degree 1 or 2 with up to three terms."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    mprime = draw(st.integers(0, 3))
    m = draw(st.integers(0, mprime))
    ks = st.tuples(*[st.integers(0, n)] * d).filter(lambda k: sum(k) == n)
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * d),
        st.sampled_from([1, -1, 2, Fraction(1, 3)]), min_size=1, max_size=2,
    ).map(lambda c: Poly(d, c))
    return SymbolPoly(p, 0, d, draw(st.dictionaries(ks, polys, min_size=1, max_size=3))), m, mprime


class TestThetaVariantsFold:
    @settings(max_examples=60, deadline=None)
    @given(localizer_symbols())
    def test_same_terms_in_the_same_order_as_the_power_loop(self, case):
        def flat(f):
            return f.p, f.m, f.d, [(k, list(c.coeffs.items())) for k, c in f.terms.items()]

        got, want = theta_variants(*case), theta_variants_by_powers(*case)
        assert [flat(f) for f in got] == [flat(f) for f in want]


class TestIsogenyBound:
    @pytest.mark.parametrize("p", [2, 3])
    def test_low_degree_images_are_integral(self, p):
        # for k < p^(m+1): xi^<m'><k> maps p-integrally down to level m
        for m in range(2):
            mp = m + 1
            for k in range(p ** (m + 1)):
                img = rational_level_change(SymbolPoly.xi(p, mp, k), m)
                assert img.p_valuation() >= 0
