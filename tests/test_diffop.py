import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff.diffop import (
    DiffOp,
    build_theta_tilde,
    central_level_for,
    level_map_phi,
    order_and_symbol,
    reduce_mod,
)
from microdiff.errors import (
    LevelMismatch,
    NotHomogeneous,
    NotIntegral,
    SearchBoundExceeded,
    ZeroOperator,
)
from microdiff.padic import divided_lift, level_shift_constant
from microdiff.polynomials import Poly
from microdiff.pseudopoly import SymbolPoly, level_changed, rational_level_change


def ops_equal_via_action(P: DiffOp, Q: DiffOp, tmax=None) -> bool:
    """Independent oracle for d=1: two operators agree iff they act equally
    on the monomials x^t for t up to the largest derivative exponent plus
    the largest coefficient degree (triangularity of the action)."""
    assert P.d == 1 and Q.d == 1
    if tmax is None:
        hi = max(
            [k[0] for k in P.terms] + [k[0] for k in Q.terms] + [0]
        )
        tmax = hi + 2
    for t in range(tmax + 1):
        f = Poly.var(power=t) if t else Poly.const(1)
        if P.apply(f) != Q.apply(f):
            return False
    return True


def random_diffop(rng, p, m, d=1, max_k=6, max_deg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        k = tuple(rng.randint(0, max_k) for _ in range(d))
        exp = tuple(rng.randint(0, max_deg) for _ in range(d))
        c = rng.randint(-5, 5)
        if c:
            terms[k] = terms.get(k, Poly.zero(d)) + Poly(d, {exp: c})
    return DiffOp(p, m, d, terms)


@st.composite
def diffops(draw, p, m, d, n=2, min_exp=-2):
    """n random operators of (p, m, d): up to three terms of order <= 4 per
    coordinate, coefficients with x-exponents in [min_exp, 3]."""
    exps = st.tuples(*[st.integers(min_exp, 3)] * d)
    polys = st.dictionaries(exps, st.integers(-4, 4), max_size=3).map(lambda c: Poly(d, c))
    ks = st.tuples(*[st.integers(0, 4)] * d)
    return [
        DiffOp(p, m, d, draw(st.dictionaries(ks, polys, max_size=3))) for _ in range(n)
    ]


@st.composite
def operator_pairs(draw, min_exp=-2):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 2))
    d = draw(st.integers(1, 2))
    return draw(diffops(p, m, d, min_exp=min_exp))


class TestDifferentialOracles:
    """The fast paths against the slow exact ones they replace."""

    @settings(max_examples=80, deadline=None)
    @given(operator_pairs())
    def test_commutator_is_difference_of_products(self, ops):
        A, B = ops
        assert A.commutator(B) == A * B - B * A

    @settings(max_examples=60, deadline=None)
    @given(operator_pairs(), st.data())
    def test_product_acts_as_composition(self, ops, data):
        P, Q = ops
        exps = st.tuples(*[st.integers(-2, 4)] * P.d)
        f = Poly(P.d, data.draw(st.dictionaries(exps, st.integers(-5, 5), max_size=4)))
        assert (P * Q).apply(f) == P.apply(Q.apply(f))

    @settings(max_examples=60, deadline=None)
    @given(operator_pairs())
    def test_plain_lift_is_the_level_change_to_level_0(self, ops):
        P, _ = ops
        plain = P.to_plain()
        for k, c in P.terms.items():
            assert plain[k] == c.scale(math.prod(divided_lift(kj, P.p, P.m) for kj in k))
        assert DiffOp(P.p, 0, P.d, plain) == rational_level_change(P, 0)
        assert rational_level_change(DiffOp(P.p, 0, P.d, plain), P.m) == P

    @settings(max_examples=60, deadline=None)
    @given(operator_pairs())
    def test_level_change_to_the_same_level_is_the_identity(self, ops):
        # the fast path of every level-0 product: each constant is q!/q! = 1
        P, _ = ops
        assert rational_level_change(P, P.m) == P
        rescaled = {
            k: c.scale(math.prod(level_shift_constant(kj, P.p, P.m, P.m) for kj in k))
            for k, c in P.terms.items()
        }
        assert level_changed(P.terms, P.p, P.m, P.m) == rescaled


class TestDefiningRelation:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_relation_exact(self, p, m):
        # k! * D^<m><k> = q! * D^k as identities under the rational lift
        for k in range(65):
            q = k // p**m
            lift = divided_lift(k, p, m)  # D^<m><k> = lift * D^k
            assert math.factorial(k) * lift == math.factorial(q)


class TestMultiply:
    def test_leibniz_level0(self):
        p = 2
        d_ = DiffOp.dx(p, 0)
        x = DiffOp.x(p, 0)
        assert d_ * x == x * d_ + DiffOp.one(p, 0)

    def test_poly_factor_on_the_right_is_an_operator(self):
        # d * x, with x a Poly, composes: d o x = x d + 1, not the scalar x d
        d_ = DiffOp.dx(2, 0)
        x = Poly.var()
        assert d_ * x == d_ * DiffOp.from_poly(x, 2, 0) == DiffOp.x(2, 0) * d_ + DiffOp.one(2, 0)
        assert DiffOp.dx(2, 1, 2) * x == DiffOp.dx(2, 1, 2) * DiffOp.x(2, 1)
        assert 3 * d_ == d_ * 3 == d_.scale(3)

    def test_poly_factor_on_the_left_scales(self):
        # a Poly on the left is a coefficient: x * d is the operator x1*d1
        x = Poly.var()
        assert x * DiffOp.dx(2, 0) == DiffOp.x(2, 0) * DiffOp.dx(2, 0)
        assert x * DiffOp.dx(2, 1, 3) == DiffOp(2, 1, 1, {(3,): x})

    def test_divided_square(self):
        P = DiffOp.dx(2, 1, 2)
        assert P * P == DiffOp.dx(2, 1, 4).scale(3)

    def test_divided_times_x(self):
        # D^<1><2> * x = x*D^<1><2> + d   (since (d^2/2) x = (x d^2 + 2d)/2)
        P = DiffOp.dx(2, 1, 2) * DiffOp.x(2, 1)
        want = DiffOp(2, 1, 1, {(2,): Poly.var(), (1,): Poly.const(1)})
        assert P == want

    @pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (3, 1), (2, 2)])
    def test_action_oracle(self, p, m):
        rng = random.Random(20 + p + m)
        for _ in range(15):
            P = random_diffop(rng, p, m)
            Q = random_diffop(rng, p, m)
            R = P * Q
            # (PQ)(f) = P(Q(f)) on enough monomials
            for t in range(10):
                f = Poly.var(power=t) if t else Poly.const(1)
                assert R.apply(f) == P.apply(Q.apply(f))

    def test_brute_force_leibniz_level0(self):
        # monomial pairs a x^u d^k * b x^v d^l against a term-by-term oracle
        p = 3
        for k in range(5):
            for kp in range(5):
                P = DiffOp(p, 0, 1, {(k,): Poly.var(power=2)})
                Q = DiffOp(p, 0, 1, {(kp,): Poly.var(power=1)})
                want = {}
                # sum_j binom(k,j) x^2 * d^j(x) ... via falling factorials
                for j in range(k + 1):
                    # d^j(x^1) nonzero only for j <= 1
                    if j > 1:
                        continue
                    coeff = math.comb(k, j) * (1 if j == 0 else 1)
                    xpow = 2 + (1 - j)
                    key = (k - j + kp,)
                    want[key] = want.get(key, Poly.zero(1)) + Poly(1, {(xpow,): coeff})
                assert (P * Q).terms == {k_: v for k_, v in want.items() if not v.is_zero()}

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_associativity(self, p, m):
        rng = random.Random(100 + 10 * p + m)
        for _ in range(8):
            P = random_diffop(rng, p, m, max_k=5, max_deg=2, nterms=2)
            Q = random_diffop(rng, p, m, max_k=5, max_deg=2, nterms=2)
            R = random_diffop(rng, p, m, max_k=5, max_deg=2, nterms=2)
            assert (P * Q) * R == P * (Q * R)

    def test_associativity_d2(self):
        rng = random.Random(7)
        for _ in range(5):
            P = random_diffop(rng, 2, 1, d=2, max_k=3, max_deg=1, nterms=2)
            Q = random_diffop(rng, 2, 1, d=2, max_k=3, max_deg=1, nterms=2)
            R = random_diffop(rng, 2, 1, d=2, max_k=3, max_deg=1, nterms=2)
            assert (P * Q) * R == P * (Q * R)

    def test_integrality_preserved(self):
        rng = random.Random(5)
        for _ in range(25):
            P = random_diffop(rng, 2, 1)
            Q = random_diffop(rng, 2, 1)
            assert (P * Q).is_integral()

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            DiffOp.dx(2, 0) * DiffOp.dx(2, 1)


class TestOrderAndSymbol:
    def test_d_minus_x(self):
        P = DiffOp.dx(2, 0) - DiffOp.x(2, 0)
        os = order_and_symbol(P)
        assert os.order == 1
        assert os.symbol == SymbolPoly.xi(2, 0)
        assert os.secondary is None

    def test_top_killed_by_p(self):
        # p d^2 + d: order 2 with vanishing mod-p symbol; falls to (1, xi)
        p = 2
        P = DiffOp(p, 0, 1, {(2,): Poly.const(p), (1,): Poly.const(1)})
        os = order_and_symbol(P)
        assert os.order == 2 and os.symbol.is_zero()
        assert os.secondary == (1, SymbolPoly.xi(p, 0))

    def test_basis_element(self):
        os = order_and_symbol(DiffOp.dx(2, 1, 2))
        assert os.order == 2 and os.symbol == SymbolPoly.xi(2, 1, 2)

    def test_zero_and_nonintegral(self):
        with pytest.raises(ZeroOperator):
            order_and_symbol(DiffOp.zero(2, 0))
        with pytest.raises(NotIntegral):
            order_and_symbol(DiffOp.dx(2, 0).scale(Fraction(1, 2)))

    def test_multiplicativity_of_symbol(self):
        rng = random.Random(9)
        for _ in range(20):
            P = random_diffop(rng, 3, 1)
            Q = random_diffop(rng, 3, 1)
            if P.is_zero() or Q.is_zero():
                continue
            sP = order_and_symbol(P).symbol
            sQ = order_and_symbol(Q).symbol
            if (sP * sQ).is_zero():
                continue
            assert order_and_symbol(P * Q).symbol == (sP * sQ).mod_p()

    @pytest.mark.parametrize(
        "P,want",
        [
            (DiffOp.dx(2, 0) - DiffOp.x(2, 0), SymbolPoly.xi(2, 0)),
            # the order ignores p-adic size: 2 d^2 -> 2 xi^2 over Q
            (DiffOp.dx(2, 0, 2).scale(2), SymbolPoly.xi(2, 0, 2).scale(2)),
            (DiffOp.zero(2, 0), SymbolPoly.zero(2, 0)),
        ],
        ids=["d-x", "2d^2", "zero"],
    )
    def test_symbol_exact(self, P, want):
        assert P.symbol_exact() == want


class TestLevelMap:
    def test_frozen_example(self):
        assert level_map_phi(DiffOp.dx(2, 0, 2), 1) == DiffOp.dx(2, 1, 2).scale(2)

    def test_identity_and_composition(self):
        P = DiffOp.dx(2, 0, 4)
        assert level_map_phi(P, 0) == P
        assert level_map_phi(level_map_phi(P, 1), 2) == level_map_phi(P, 2)

    def test_wrong_direction(self):
        with pytest.raises(LevelMismatch):
            level_map_phi(DiffOp.dx(2, 2), 1)

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for _ in range(10):
            P = random_diffop(rng, 2, 0, max_k=5)
            Q = random_diffop(rng, 2, 0, max_k=5)
            assert level_map_phi(P * Q, 2) == level_map_phi(P, 2) * level_map_phi(Q, 2)
            if not P.is_zero():
                assert level_map_phi(P, 2).order() == P.order()

    def test_integrality(self):
        for k in range(30):
            assert level_map_phi(DiffOp.dx(2, 0, k), 2).is_integral()


class TestThetaTilde:
    def test_xi_levels_0_1(self):
        theta = SymbolPoly.xi(2, 0)
        tt = build_theta_tilde(theta, 0, 1)
        assert tt.op == DiffOp.dx(2, 0, 2)  # d^2
        assert tt.order == 2

    def test_xi_level_1(self):
        tt = build_theta_tilde(SymbolPoly.xi(2, 0), 1, 1)
        assert tt.op == DiffOp.dx(2, 1, 2)

    def test_symbol_matches_theta_variant(self):
        from microdiff.pseudopoly import theta_variants

        for p, m, mp in [(2, 0, 1), (2, 1, 2), (3, 0, 1)]:
            theta = SymbolPoly(p, 0, 1, {(1,): Poly.var()})
            tt = build_theta_tilde(theta, m, mp)
            _, lo = theta_variants(theta, m, mp)
            assert tt.op.symbol_exact() == lo
            assert tt.op.order() == tt.order

    def test_degree_zero_rejected(self):
        with pytest.raises(NotHomogeneous):
            build_theta_tilde(SymbolPoly.one(2, 0), 0, 1)


class TestCentralLevel:
    def test_xi_p2_i0(self):
        # [d^2, x] = 2d vanishes mod 2 -> m' = 1
        assert central_level_for(SymbolPoly.xi(2, 0), 0, 0) == 1

    def test_xi_p2_i1(self):
        m1 = central_level_for(SymbolPoly.xi(2, 0), 0, 1)
        # brute check: the returned level really commutes mod 4
        tt = build_theta_tilde(SymbolPoly.xi(2, 0), 0, m1).op
        for g in (DiffOp.x(2, 0), DiffOp.dx(2, 0)):
            assert tt.commutator(g).p_valuation() >= 2
        # and the previous level does not
        prev = build_theta_tilde(SymbolPoly.xi(2, 0), 0, m1 - 1).op
        assert any(
            prev.commutator(g).p_valuation() < 2
            for g in (DiffOp.x(2, 0), DiffOp.dx(2, 0))
        )

    def test_never_central_at_same_level(self):
        assert central_level_for(SymbolPoly.xi(2, 0), 0, 0) > 0

    def test_search_bound(self):
        # [d, x] = 1 is no multiple of p, so m' = 0 is not central
        with pytest.raises(SearchBoundExceeded, match="with m' <= 0"):
            central_level_for(SymbolPoly.xi(2, 0), 0, 0, search_bound=0)


class TestReduceMod:
    def test_simple(self):
        P = DiffOp.dx(2, 1, 4).scale(3)
        assert reduce_mod(P, 0) == DiffOp.dx(2, 1, 4)

    def test_homomorphism(self):
        rng = random.Random(3)
        for _ in range(10):
            P = random_diffop(rng, 2, 1)
            Q = random_diffop(rng, 2, 1)
            assert reduce_mod(P * Q, 1) == reduce_mod(reduce_mod(P, 1) * reduce_mod(Q, 1), 1)

    def test_rejects_nonintegral(self):
        with pytest.raises(NotIntegral):
            reduce_mod(DiffOp.dx(2, 0).scale(Fraction(1, 2)), 0)


# The order filtration of D^(m): its principal symbol is multiplicative, and
# the degree-zero quotient of its Rees ring is the graded ring of symbols.


class TestPrincipalSymbol:
    def test_multiplicative_when_nonzero(self):
        rng = random.Random(1)
        for _ in range(20):
            P = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([rng.randint(-3, 3), 1])})
            Q = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([1, rng.randint(-3, 3)])})
            sP = P.symbol_exact()
            sQ = Q.symbol_exact()
            if (sP * sQ).is_zero():
                continue
            assert (P * Q).symbol_exact() == sP * sQ


class TestRees:
    def test_degree_zero_quotient_is_graded_ring(self):
        # in A_bullet/nu: classes of basis monomials multiply like symbols
        p, m = 2, 1
        for k1 in range(4):
            for k2 in range(4):
                a = DiffOp.dx(p, m, k1)
                b = DiffOp.dx(p, m, k2)
                assert (a * b).symbol_exact() == a.symbol_exact() * b.symbol_exact()
