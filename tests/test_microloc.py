import contextlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from microdiff.diffop import DiffOp, build_theta_tilde
from microdiff.errors import (
    IncompatibleLocalizer,
    InvalidParameter,
    MicrodiffError,
    NotInvertibleAtSymbol,
    SearchBoundExceeded,
    SymbolMismatch,
)
from microdiff.microloc import (
    InversionReport,
    MembershipVerdict,
    MicroOp,
    _push,
    alpha_bound,
    change_presentation_level,
    convert_presentation,
    invert_theta_tilde,
    membership_intermediate,
    micro_multiply,
    normcalc_bounds,
    observed_a_bound,
    ore_witness,
    psi_level_lower,
    try_invert,
    validate_convergence,
)
from microdiff.padic import binomial_structure_constant_exact, level_shift_constant, valuation
from microdiff.polynomials import Poly
from microdiff.pseudopoly import SymbolPoly, check_window, rational_level_change

XI2 = SymbolPoly.xi(2, 0)
XI3 = SymbolPoly.xi(3, 0)


def rand_micro(rng, theta, level, mprime, nterms=3, maxk=5, maxi=2, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        k = rng.randint(0, maxk)
        i = rng.randint(0, maxi)
        c = rng.randint(-4, 4)
        e = rng.randint(0, maxdeg)
        if c:
            key = ((k,), i)
            terms[key] = terms.get(key, Poly.zero(1)) + Poly(1, {(e,): c})
    return MicroOp(theta, level, mprime, terms)


@st.composite
def left_micro_pairs(draw):
    """Two random left MicroOps on one localizer theta = xi: p = 2 or 3,
    0 <= m <= m' <= 2, one window floor, up to four (k, i) terms each."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    floor = draw(st.sampled_from([-math.inf, -6, -2]))
    polys = st.dictionaries(
        st.tuples(st.integers(0, 3)), st.integers(-4, 4), max_size=3
    ).map(lambda c: Poly(1, c))
    keys = st.tuples(st.tuples(st.integers(0, 5)), st.integers(0, 2))
    xi = SymbolPoly.xi(p, 0)
    return [
        MicroOp(xi, m, mp, draw(st.dictionaries(keys, polys, max_size=4)), floor=floor)
        for _ in range(2)
    ]


THETA_COEFFS = [Poly.from_univariate([1, 1]), Poly.var(), Poly.var(power=2)]


@st.composite
def localizer_micro(draw, constant_only=True):
    """A left MicroOp on either chart: p = 2 or 3, 0 <= m <= m' <= 2, up to
    four terms with each k_j <= 2*korder + 2 and i <= 3, coefficients with
    x-exponents in -1..3, and a floor in -8..0 or -inf.  Theta is xi_j,
    2*xi_j or -3*xi_j in d = 1 or 2 coordinates, so that the localizer is
    one term c*D^<m><K> with c a constant; unless constant_only, theta may
    also be (1+x)*xi, x*xi or x^2*xi, where c is not a constant, or the
    d = 2 theta xi1 + xi2, whose localizer has two terms."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    kind = "constant" if constant_only else draw(
        st.sampled_from(["constant", "polynomial", "two terms"])
    )
    if kind == "constant":
        d = draw(st.integers(1, 2))
        xi = SymbolPoly.xi(p, 0, 1, draw(st.integers(0, d - 1)), d)
        theta = xi.scale(draw(st.sampled_from([1, 2, -3])))
    elif kind == "polynomial":
        d = 1
        theta = SymbolPoly(p, 0, 1, {(1,): draw(st.sampled_from(THETA_COEFFS))})
    else:
        d = 2
        theta = SymbolPoly.xi(p, 0, 1, 0, 2) + SymbolPoly.xi(p, 0, 1, 1, 2)
    laurent = draw(st.booleans())
    floor = draw(st.sampled_from([-math.inf, *range(-8, 1)]))
    korder = p**mp
    exps = st.tuples(*[st.integers(-1, 3)] * d)
    polys = st.dictionaries(exps, st.integers(-4, 4), max_size=3).map(lambda c: Poly(d, c))
    ks = st.tuples(*[st.integers(0, 2 * korder + 2)] * d)
    keys = st.tuples(ks, st.integers(0, 3))
    terms = draw(st.dictionaries(keys, polys, max_size=4))
    return MicroOp(theta, m, mp, terms, floor=floor, laurent=laurent)


@st.composite
def mixed_chart_pairs(draw):
    """Two left MicroOps on one localizer, the first on the Laurent chart and
    the second off it: p = 2 or 3, 0 <= m <= m' <= 2, theta xi, (1+x)*xi,
    x*xi or x^2*xi, and terms and floors as in ``localizer_micro``."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    theta = SymbolPoly(p, 0, 1, {(1,): draw(st.sampled_from([Poly.const(1), *THETA_COEFFS]))})
    polys = st.dictionaries(
        st.tuples(st.integers(-1, 3)), st.integers(-4, 4), max_size=3
    ).map(lambda c: Poly(1, c))
    keys = st.tuples(st.tuples(st.integers(0, 2 * p**mp + 2)), st.integers(0, 3))
    floors = st.sampled_from([-math.inf, *range(-8, 1)])
    return [
        MicroOp(theta, m, mp, draw(st.dictionaries(keys, polys, max_size=4)),
                floor=draw(floors), laurent=laurent)
        for laurent in (True, False)
    ]


@st.composite
def integral_micro_pairs(draw):
    """Two canonical, integral left MicroOps on one localizer theta = xi:
    p = 2 or 3, 0 <= m <= m' <= 2, floor -8, up to three (k, i) terms with
    k <= 4 and i <= 2, and coefficients of x-degree <= 2 in -3..3."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    polys = st.dictionaries(
        st.tuples(st.integers(0, 2)), st.integers(-3, 3), max_size=3
    ).map(lambda c: Poly(1, c))
    keys = st.tuples(st.tuples(st.integers(0, 4)), st.integers(0, 2))
    xi = SymbolPoly.xi(p, 0)
    pair = [
        MicroOp(xi, m, mp, draw(st.dictionaries(keys, polys, max_size=3)), floor=-8).canonical()
        for _ in range(2)
    ]
    assume(all(A.is_integral() for A in pair))
    return pair


@st.composite
def inversion_inputs(draw):
    """try_invert's arguments (P, theta, m', floor, laurent) on either chart:
    p = 2 or 3, 0 <= m <= m' <= 2, a window floor in -12..-6, theta = xi,
    or x*xi on the Laurent chart at m' <= 1.  P is c*D^<m><n+s*korder>
    T^(-s) with c a nonzero constant (on the Laurent chart, or x times one),
    n <= 2*korder and s = 0 or 1 (so not always canonical), plus up to two
    terms of lower order whose coefficients have x-exponents in 0..1; a P
    with no T^(-1) may come as a DiffOp."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    laurent = draw(st.booleans())
    floor = draw(st.integers(-12, -6))
    theta = SymbolPoly(p, 0, 1, {(1,): draw(st.sampled_from([Poly.const(1), Poly.var()]))
                                 if laurent and mp <= 1 else Poly.const(1)})
    korder = p**mp
    n = draw(st.integers(0, 2 * korder))
    s = draw(st.integers(0, 1))
    lead = Poly(1, {(draw(st.integers(0, 1)) if laurent else 0,):
                    draw(st.sampled_from([1, -1, 3, Fraction(1, 2)]))})
    terms = {((n + s * korder,), s): lead}
    polys = st.dictionaries(
        st.tuples(st.integers(0, 1)), st.integers(-4, 4).filter(bool), min_size=1, max_size=2
    ).map(lambda c: Poly(1, c))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, 1))
        if n + i * korder > 0:  # order k - i*korder below n
            terms[((draw(st.integers(0, n + i * korder - 1)),), i)] = draw(polys)
    if all(i == 0 for _, i in terms) and draw(st.booleans()):
        P = DiffOp(p, m, 1, {k: c for (k, _), c in terms.items()})
    else:
        P = MicroOp(theta, m, mp, terms, laurent=laurent)
    return P, theta, mp, floor, laurent


def inversion_outcome(P, theta, mprime, floor, laurent, invert=try_invert):
    """What try_invert (or ``invert``) reports, or the error it raises, as
    comparable data."""
    try:
        rep = invert(P, theta, mprime, floor, laurent=laurent)
    except MicrodiffError as err:
        return type(err), str(err)
    return (rep.ok, rep.inverse.to_json(), rep.profile.pairs(),
            rep.left_residual_below_floor, rep.right_residual_below_floor, rep.note)


@contextlib.contextmanager
def fresh_memo_per_product():
    """In the block, every micro_multiply call gets a fresh ad_T memo, as
    each product of try_invert had before the products shared one."""
    def fresh(P, Q, *, memo=None):
        return micro_multiply(P, Q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("microdiff.microloc.micro_multiply", fresh)
        yield


X_XI2 = SymbolPoly(2, 0, 1, {(1,): Poly.var()})  # x*xi

NONZERO_CONSTANTS = [1, -1, 3, Fraction(-5, 2), Fraction(1, 3)]


def assert_constant_factor_leaves_the_product(P, S, c):
    """P*(c*S) == c*(P*S) term for term, in the same order, and floor for
    floor, for c a number and for c a constant Poly (try_invert's form)."""
    for const in (c, Poly.const(c, P.d)):
        got, want = micro_multiply(P, S.scale(const)), micro_multiply(P, S).scale(const)
        assert got.terms == want.terms
        assert list(got.terms) == list(want.terms)
        assert got.floor == want.floor


@contextlib.contextmanager
def counting_commutators():
    """Count DiffOp.commutator calls in the block: yields a one-element list
    holding the running count."""
    calls = [0]
    commutator = DiffOp.commutator

    def counted(self, other):
        calls[0] += 1
        return commutator(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiffOp, "commutator", counted)
        yield calls


def nonzero(buckets):
    return {i: B for i, B in buckets.items() if not B.is_zero()}


def _canonical_by_division(P: MicroOp) -> MicroOp:
    """P.canonical() for a localizer T whose top symbol is one term: h, the
    quotient of a bucket's top symbol by sigma(T), moves down one power of
    T, and the Leibniz product h*T leaves the bucket."""
    T = P.localizer().op
    sT = T.symbol_exact()
    if len(sT.terms) != 1 or P.is_zero():
        return P
    ((kT, cT),) = sT.terms.items()
    buckets = P.buckets()
    for i in range(max(buckets), 0, -1):
        B = buckets.get(i)
        if B is None:
            continue
        while not B.is_zero():
            h = _divide_symbol_top(B, kT, cT, P.p, P.level, P.d, P.laurent)
            if h is None:
                break
            B = B - h * T
            lower = buckets.get(i - 1, DiffOp.zero(P.p, P.level, P.d)) + h
            buckets[i - 1] = lower
        if B.is_zero():
            buckets.pop(i, None)
        else:
            buckets[i] = B
    return P.with_terms({(k, i): c for i, op in buckets.items() for k, c in op.terms.items()})


def _divide_symbol_top(B: DiffOp, kT, cT: Poly, p, m, d, laurent):
    """Quotient h (a DiffOp lift) with sigma(h)*sigma(T) = sigma(B), or None."""
    sB = B.symbol_exact()
    out = {}
    for k, b in sB.terms.items():
        kq = tuple(a - t for a, t in zip(k, kT))
        if any(e < 0 for e in kq):
            return None
        const = binomial_structure_constant_exact(p, m, kq, kT)
        q = b.divide_exact(cT.scale(const), laurent)
        if q is None:
            return None
        out[kq] = q
    return DiffOp(p, m, d, out)


class TestAdditiveStructure:
    """MicroOp's sums are DiffOp's sums, one T-power bucket at a time."""

    @settings(max_examples=100, deadline=None)
    @given(left_micro_pairs(), st.sampled_from([0, -3, Fraction(1, 2), Poly.var()]))
    def test_bucket_by_bucket(self, pair, c):
        A, B = pair
        a, b = A.buckets(), B.buckets()
        zero = DiffOp.zero(A.p, A.level)
        both = a.keys() | b.keys()
        assert (A + B).buckets() == nonzero({i: a.get(i, zero) + b.get(i, zero) for i in both})
        assert (A - B).buckets() == nonzero({i: a.get(i, zero) - b.get(i, zero) for i in both})
        assert (-A).buckets() == {i: -D for i, D in a.items()}
        assert A.scale(c).buckets() == nonzero({i: D.scale(c) for i, D in a.items()})
        assert A.p_valuation() == min((D.p_valuation() for D in a.values()), default=math.inf)
        assert A.is_zero() == (not a)
        assert A.is_integral() == all(D.is_integral() for D in a.values())

    def test_mixed_sums_lift_a_diffop_and_refuse_a_symbol(self):
        # a DiffOp is lifted onto the MicroOp's localizer in either order; a
        # symbol never combines with a MicroOp, in either order
        A = MicroOp(XI2, 0, 0, {((0,), 0): 1, ((0,), 1): Poly.var()}, floor=-6)
        D, xi = DiffOp.dx(2, 0), SymbolPoly.xi(2, 0)
        assert D + A == A + D == A + A.lift(D)
        assert D - A == -(A - D) == A.lift(D) - A
        for combine in (lambda: A + xi, lambda: xi + A, lambda: A - xi, lambda: xi - A):
            with pytest.raises(IncompatibleLocalizer, match="SymbolPoly"):
                combine()

    @settings(max_examples=100, deadline=None)
    @given(mixed_chart_pairs())
    @example([MicroOp(X_XI2, 0, 0, {((1,), 1): 1}, floor=-6, laurent=True),
              MicroOp(X_XI2, 0, 0, {((0,), 0): 1}, floor=-6)])
    def test_a_sum_joins_the_charts(self, pair):
        # as a product does: on the Laurent chart, d*(x d)^-1 = 1/x, which
        # the chart of B alone cannot divide out
        A, B = pair
        assert (A + B).laurent and (B + A).laurent
        assert A + B == B + A

    @settings(max_examples=100, deadline=None)
    @given(left_micro_pairs(), st.sampled_from([None, -math.inf, -4, 0]))
    def test_with_terms_keeps_the_localizer_and_the_floor(self, pair, floor):
        # with_terms shares its operand's localizer data and checks the
        # terms as the constructor does, floor filter included
        A, B = pair
        C = A.with_terms(B.terms, floor=floor)
        want = MicroOp(A.theta, A.level, A.mprime, B.terms, A.side,
                       A.floor if floor is None else floor, A.laurent)
        assert (C.n, C.localizer_order) == (A.n, A.localizer_order)
        assert C.localizer() is A.localizer()
        assert C.localizer() == build_theta_tilde(A.theta, A.level, A.mprime)
        assert (C.terms, C.floor, C._meta(), C.laurent) == (
            want.terms, want.floor, want._meta(), want.laurent)
        with pytest.raises(ValueError):
            A.with_terms({((0,), -1): 1})

    @pytest.mark.parametrize("key", [((-1,), 0), ((1, 0), 0), ((0,), -1)],
                             ids=["negative-exponent", "wrong-length", "negative-power"])
    def test_bad_key_rejected(self, key):
        with pytest.raises(ValueError):
            MicroOp(XI2, 0, 0, {key: 1})
        if key[1] >= 0:  # the exponent alone, as DiffOp checks it
            with pytest.raises(ValueError):
                DiffOp(2, 0, 1, {key[0]: 1})


class TestPresentation:
    def test_term_order(self):
        # order of (k, i) is |k| - i*n*p^m'
        assert MicroOp(XI2, 0, 1, {((5,), 2): 1}).order() == 5 - 4
        assert MicroOp(SymbolPoly.xi(3, 0, 2), 0, 0, {((0,), 1): 1}).order() == -2

    def test_right_to_left_example(self):
        # right d^-1 x  ->  left x d^-1 - d^-2
        P = MicroOp(XI2, 0, 0, {((0,), 1): Poly.var()}, side="right")
        L = convert_presentation(P, "left")
        assert L.terms == {((0,), 1): Poly.var(), ((0,), 2): Poly.const(-1)}

    def test_roundtrip_exact(self):
        rng = random.Random(42)
        for trial in range(25):
            P = rand_micro(rng, XI2, 0, 0)
            back = convert_presentation(convert_presentation(P, "right"), "left")
            assert back == P, f"trial {trial}"

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
            MicroOp(XI2, 0, 0, side="up")
        with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
            convert_presentation(MicroOp(XI2, 0, 0, {((0,), 1): 1}), "up")

    def test_from_diffop_across_spaces_rejected(self):
        with pytest.raises(IncompatibleLocalizer,
                           match="^operator and theta live on different spaces$"):
            MicroOp.from_diffop(DiffOp.dx(3, 0), XI2, 0)

    def test_constant_coefficient_side_invariant(self):
        P = MicroOp(XI2, 0, 1, {((3,), 1): 5})
        R = convert_presentation(P, "right")
        assert R.terms == P.terms

    def test_equal_right_presentations_compare_equal(self):
        # right T^-1 d and right 1 are the same element (T = d at p = 2)
        xi = SymbolPoly.xi(2, 0)
        A = MicroOp(xi, 0, 0, {((1,), 1): 1}, side="right", floor=-6)
        B = MicroOp(xi, 0, 0, {((0,), 0): 1}, side="right", floor=-6)
        assert A == B and hash(A) == hash(B)
        assert A == 1 and A == MicroOp.one(xi, 0, 0)
        assert A != MicroOp(xi, 0, 0, {((0,), 0): 2}, side="right", floor=-6)

    def test_equal_across_floors_hash_equal(self):
        # 1 + T^-5 at floor -10 equals 1 at floor -3: equality truncates at
        # the higher floor, so the hash must not see the T^-5 term
        xi = SymbolPoly.xi(2, 0)
        A = MicroOp(xi, 0, 0, {((0,), 0): 1, ((0,), 5): 1}, floor=-10)
        B = MicroOp(xi, 0, 0, {((0,), 0): 1}, floor=-3)
        assert A == B and hash(A) == hash(B)
        assert len({A, B}) == 1

    def test_left_and_right_presentations_compare_equal(self):
        P = MicroOp(XI2, 0, 0, {((0,), 1): Poly.var()}, side="right", floor=-8)
        L = convert_presentation(P, "left")
        assert P == L and hash(P) == hash(L)

    def test_lift_is_exact_and_never_equal_to_a_diffop(self):
        # a number or DiffOp lifts at floor -inf, on the operator's own side;
        # a DiffOp and a MicroOp compare unequal both ways
        d = DiffOp.dx(2, 0) * DiffOp.x(2, 0)
        R = MicroOp(XI2, 0, 0, {((0,), 1): Poly.var()}, side="right", floor=-6)
        lifted = R.lift(d)
        assert lifted.side == "right" and lifted.floor == -math.inf
        assert lifted == MicroOp.from_diffop(d, XI2, 0)
        assert R.lift(3).terms == {((0,), 0): Poly.const(3)} and R.lift(3).floor == -math.inf
        assert lifted != d and d != lifted
        assert R + d == R + lifted

    def test_canonical_reduces_localizer_multiples(self):
        # (d^2) * T^-1 with T = d^2 canonicalizes to 1
        T = build_theta_tilde(XI2, 0, 1).op
        P = MicroOp(XI2, 0, 1, {((2,), 1): 1})
        assert P.canonical().terms == {((0,), 0): Poly.const(1)}
        assert P == MicroOp.one(XI2, 0, 1)


class TestCanonical:
    """One bucket loop divides by every one-term localizer c*D^<m><K>,
    with c a constant or not; the Leibniz division loop that it replaced,
    ``_canonical_by_division``, is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(localizer_micro(constant_only=False))
    def test_reindexing_matches_the_division_loop(self, P):
        fast, slow = P.canonical(), _canonical_by_division(P)
        assert fast.terms == slow.terms
        assert list(fast.terms) == list(slow.terms)  # same order, same outputs
        assert fast.floor == slow.floor == P.floor
        if len(P.localizer().op.terms) > 1:  # xi1 + xi2: no division
            assert list(fast.terms.items()) == list(P.terms.items())

    @pytest.mark.parametrize("coeff", [Poly.var(power=2), Poly.from_univariate([1, 1])],
                             ids=["x^2", "1+x"])
    def test_other_localizers_take_the_division_loop(self, coeff):
        # T = a(x)*d at p = 2, m = m' = 0, so a(x)*d*T^-1 is 1
        theta = SymbolPoly(2, 0, 1, {(1,): coeff})
        P = MicroOp(theta, 0, 0, {((1,), 1): coeff, ((0,), 2): 1}, floor=-6)
        assert P.canonical().terms == {((0,), 0): Poly.const(1), ((0,), 2): Poly.const(1)}


class TestOneLocalizer:
    """Both presentations invert the same T, also when theta has a
    non-constant coefficient and the left and right lifts of theta differ."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "coeff",
        [pytest.param(Poly.var(power=e), id=str(e)) for e in (0, 1, 2)]
        # (1 + x) xi: the only theta found whose canonical form needs the
        # long division of Poly.divide_exact
        + [pytest.param(Poly.from_univariate([1, 1]), id="1+x")],
    )
    @pytest.mark.parametrize("m, mp", [(0, 0), (0, 1), (1, 1)])
    def test_t_times_right_t_inverse(self, p, coeff, m, mp):
        # T * (T^-1 D^<m><k> x, converted to the left) == D^<m><k> x
        theta = SymbolPoly(p, 0, 1, {(1,): coeff})
        T = MicroOp.from_diffop(build_theta_tilde(theta, m, mp).op, theta, mp)
        for k in range(3):
            Q = DiffOp.dx(p, m, k) * DiffOp.x(p, m)
            R = MicroOp(theta, m, mp, {((k,), 1): Poly.var()}, side="right", floor=-8)
            prod = micro_multiply(T, convert_presentation(R, "left"))
            assert prod == MicroOp.from_diffop(Q, theta, mp), f"k = {k}"

    @pytest.mark.parametrize("m, mp", [(0, 0), (0, 1), (1, 1)])
    def test_roundtrip_x2_xi_p3(self, m, mp):
        theta = SymbolPoly(3, 0, 1, {(1,): Poly.var(power=2)})  # x^2 xi
        terms = {((1,), 1): Poly.var(), ((2,), 2): 1, ((0,), 0): Poly.var(power=2)}
        P = MicroOp(theta, m, mp, terms, floor=-10, laurent=True)
        back = convert_presentation(convert_presentation(P, "right"), "left")
        assert back == P


class TestMultiply:
    def test_t_times_t_inverse(self):
        for level, mp in [(0, 0), (0, 1), (1, 1), (1, 2)]:
            Tinv = invert_theta_tilde(XI2, level, mp, floor=-10)
            T = MicroOp.from_diffop(build_theta_tilde(XI2, level, mp).op, XI2, mp)
            assert micro_multiply(T, Tinv) == 1
            assert micro_multiply(Tinv, T) == 1

    def test_identity(self):
        rng = random.Random(3)
        one = MicroOp.one(XI2, 0, 1)
        for _ in range(10):
            P = rand_micro(rng, XI2, 0, 1)
            assert micro_multiply(P, one) == P
            assert micro_multiply(one, P) == P

    def test_consistency_with_diffop_product(self):
        # i = 0 terms multiply exactly like differential operators
        rng = random.Random(8)
        for _ in range(10):
            A = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([rng.randint(-3, 3), 1])})
            B = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([1, rng.randint(-3, 3)])})
            mA = MicroOp.from_diffop(A, XI2, 0)
            mB = MicroOp.from_diffop(B, XI2, 0)
            assert micro_multiply(mA, mB) == MicroOp.from_diffop(A * B, XI2, 0)

    def test_spec_consistency_example(self):
        # d * (x d^-1 - d^-2) = x within window
        L = MicroOp(XI2, 0, 0, {((0,), 1): Poly.var(), ((0,), 2): -1}, floor=-4)
        dmic = MicroOp.from_diffop(DiffOp.dx(2, 0), XI2, 0).truncate(-4)
        prod = micro_multiply(dmic, L)
        x = MicroOp(XI2, 0, 0, {((0,), 0): Poly.var()}, floor=prod.floor)
        assert prod == x

    @settings(max_examples=40, deadline=None)
    @given(left_micro_pairs())
    def test_right_presentations_multiply_through_the_left(self, pair):
        # the product of the right images is right-presented and equals the
        # product of their left conversions, which are A and B
        A, B = pair
        prod = micro_multiply(convert_presentation(A, "right"), convert_presentation(B, "right"))
        assert prod.side == "right"
        assert prod == micro_multiply(A, B)

    @settings(max_examples=60, deadline=None)
    @given(left_micro_pairs(), st.sampled_from(NONZERO_CONSTANTS))
    def test_a_constant_factor_leaves_the_product(self, pair, c):
        # try_invert reuses P*S0 for P*(c*S0) on this identity
        assert_constant_factor_leaves_the_product(*pair, c)

    @settings(max_examples=60, deadline=None)
    @given(localizer_micro(), st.sampled_from(NONZERO_CONSTANTS))
    # refused only after 109 commutators, some 30 s, when every exact-floor
    # push searched up to a step bound
    @example(MicroOp(XI3, 0, 2, {((20,), 3): Poly.var(power=-1)}, floor=-math.inf, laurent=True), 1)
    def test_a_constant_factor_leaves_the_product_on_both_charts(self, P, c):
        with counting_commutators() as calls:
            try:
                micro_multiply(P, P)
            except SearchBoundExceeded:  # an exact floor and 1/x: ad_T never ends
                # decided before the first commutator of the one push
                assert len(P.terms) > 1 or calls == [0]
                with pytest.raises(SearchBoundExceeded):
                    micro_multiply(P, P.scale(c))
                return
        assert_constant_factor_leaves_the_product(P, P, c)

    @settings(max_examples=60, deadline=None)
    @given(left_micro_pairs())
    def test_a_filled_memo_leaves_the_product(self, pair):
        # the memo holds [T, D] exactly, whatever the floor of the product
        # that filled it, so any later product over the same T may read it
        A, B = pair
        memo = {}
        micro_multiply(B, A, memo=memo)
        micro_multiply(B.truncate(-2), B, memo=memo)
        want = micro_multiply(A, B)
        got = micro_multiply(A, B, memo=memo)
        assert got.to_json() == want.to_json()
        assert list(got.terms) == list(want.terms)
        with counting_commutators() as calls:
            again = micro_multiply(A, B, memo=memo)
        assert calls[0] == 0
        assert again.to_json() == want.to_json()

    def test_associativity(self):
        rng = random.Random(17)
        for _ in range(10):
            P = rand_micro(rng, XI2, 0, 1, nterms=2, maxi=1)
            Q = rand_micro(rng, XI2, 0, 1, nterms=2, maxi=1)
            R = rand_micro(rng, XI2, 0, 1, nterms=2, maxi=1)
            assert micro_multiply(micro_multiply(P, Q), R) == micro_multiply(P, micro_multiply(Q, R))

    @settings(max_examples=100, deadline=None)
    @given(integral_micro_pairs())
    def test_integral_factors_have_an_integral_product(self, pair):
        assert micro_multiply(*pair).is_integral()

    @pytest.mark.xfail(
        strict=True,
        reason="micro_multiply prunes each push at floor + i2*korder and "
        "ignores the order |k1| that the left factor's term adds",
    )
    def test_product_keeps_every_order_in_the_window(self):
        # `mul --p 2 --level 1 --window-floor -6 --expr "(x1^3*D1[1,3] +
        # 2*x1^3*D1[1,3]*Tinv2(xi1,1,1)) * (-2*D1[1,1]*Tinv(xi1,1,1))"`.
        # T = D^<1><2> = d^2/2 commutes with d, and D^<1><3> D^<1><1> = d^4/6
        # = 2/3 T^2, so the product is -4/3 x^3 T - 8/3 x^3 T^-1 exactly; the
        # second term has order -2, inside the product's window [-2, ...)
        x3 = Poly.var(power=3)
        P = MicroOp(XI2, 1, 1, {((3,), 0): x3, ((1,), 1): x3.scale(Fraction(2, 3))}, floor=-3)
        Q = MicroOp(XI2, 1, 1, {((1,), 1): -2}, floor=-5)
        want = {((2,), 0): x3.scale(Fraction(-4, 3)), ((0,), 1): x3.scale(Fraction(-8, 3))}
        unpruned = micro_multiply(P.with_terms(P.terms, floor=-math.inf),
                                  Q.with_terms(Q.terms, floor=-math.inf))
        assert unpruned.terms == want
        prod = micro_multiply(P, Q)
        assert prod.floor == -2
        assert prod.terms == want

    def test_window_refinement(self):
        # deeper window then truncate == shallow window directly
        P = MicroOp.from_diffop(DiffOp.dx(2, 0) - DiffOp.x(2, 0), XI2, 0)
        for L1, L2 in [(-4, -8), (-3, -12)]:
            deep = try_invert(P, XI2, 0, floor=L2).inverse
            shallow = try_invert(P, XI2, 0, floor=L1).inverse
            assert deep.truncate(shallow.floor) == shallow


class TestInversion:
    def test_invert_d(self):
        S = invert_theta_tilde(XI2, 0, 0, floor=-5)
        T = MicroOp.from_diffop(DiffOp.dx(2, 0), XI2, 0)
        assert micro_multiply(T, S) == 1

    def test_invert_d_squared_monomial(self):
        S = invert_theta_tilde(XI2, 0, 1, floor=-10)
        assert S.terms == {((0,), 1): Poly.const(1)}
        assert S.order() == -2

    def test_d_minus_x_level0(self):
        P = DiffOp.dx(2, 0) - DiffOp.x(2, 0)
        rep = try_invert(P, XI2, 0, floor=-6)
        assert rep.ok
        assert rep.inverse.p_valuation() >= 0
        lead = {key: c for key, c in rep.inverse.terms.items() if key[1] <= 2}
        assert lead == {((0,), 1): Poly.const(1), ((0,), 2): Poly.var()}

    def test_two_sided(self):
        for P in (DiffOp.dx(3, 0) - DiffOp.x(3, 0), DiffOp.dx(3, 0, 2) + DiffOp.one(3, 0)):
            rep = try_invert(P, XI3, 0, floor=-8)
            assert rep.left_residual_below_floor and rep.right_residual_below_floor

    def test_level1_unbounded_profile(self):
        P = DiffOp.dx(2, 1) - DiffOp.x(2, 1)
        rep = try_invert(P, XI2, 1, floor=-16)
        assert not rep.ok
        assert not rep.profile.bounded
        # valuations really do decay with depth
        assert min(-b for b in rep.profile.betas.values()) <= -4

    def test_monomial_chart(self):
        theta = SymbolPoly(2, 0, 1, {(1,): Poly.var()})  # x xi
        T = build_theta_tilde(theta, 0, 0).op  # x d
        rep = try_invert(T, theta, 0, floor=-6, laurent=True)
        assert rep.ok
        assert rep.inverse.terms == {((0,), 1): Poly.const(1)}

    def test_non_unit_rejected(self):
        theta = SymbolPoly(2, 0, 1, {(1,): Poly.var()})
        with pytest.raises(NotInvertibleAtSymbol):
            invert_theta_tilde(theta, 0, 0, floor=-4)  # no laurent chart

    def test_symbol_mismatch(self):
        P = DiffOp(2, 0, 1, {(1,): Poly.from_univariate([1, 1])})  # (1+x) d
        with pytest.raises(SymbolMismatch):
            try_invert(P, XI2, 0, floor=-4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_presentation_off_canonical_form_inverts(self, p):
        xi = SymbolPoly.xi(p, 0)
        P = MicroOp(xi, 0, 0, {((4,), 1): 1})  # D^4 T^-1 with T = d: d^3
        d3 = DiffOp.dx(p, 0, 3)
        assert P == MicroOp.from_diffop(d3, xi, 0)
        rep = try_invert(P, xi, 0, floor=-6)
        assert rep.ok
        assert rep.inverse.to_json() == try_invert(d3, xi, 0, floor=-6).inverse.to_json()

    @settings(max_examples=25, deadline=None)
    @given(inversion_inputs())
    def test_the_canonical_form_gets_the_same_verdict(self, args):
        P, theta, mprime, floor, laurent = args
        if isinstance(P, DiffOp):
            P = MicroOp.from_diffop(P, theta, mprime, laurent=laurent)
        assert inversion_outcome(P, theta, mprime, floor, laurent) == inversion_outcome(
            P.canonical(), theta, mprime, floor, laurent
        )

    def test_another_localizer_is_refused_before_any_product(self, monkeypatch):
        P = DiffOp.dx(2, 0) + invert_theta_tilde(XI2, 0, 1, floor=-6)
        monkeypatch.setattr("microdiff.microloc.micro_multiply", None)
        with pytest.raises(IncompatibleLocalizer,
                           match=r"^P is presented over theta = xi, m' = 1, not theta = xi, m' = 0$"):
            try_invert(P, XI2, 0, floor=-6)
        with pytest.raises(IncompatibleLocalizer,
                           match=r"^P is presented over theta = xi, m' = 1, not theta = 2\*xi, m' = 1$"):
            try_invert(P, XI2.scale(2), 1, floor=-6)

    def test_inversion_is_for_the_line(self):
        xi1 = SymbolPoly.xi(2, 0, 1, 0, 2)
        with pytest.raises(SymbolMismatch, match="^inversion is implemented for d = 1$"):
            try_invert(DiffOp.dx(2, 0, 1, 0, 2), xi1, 0, floor=-4)

    def test_window_floor_cap(self):
        with pytest.raises(InvalidParameter, match=r"^window floor -33 below -32$"):
            try_invert(DiffOp.dx(2, 0), XI2, 0, floor=-33)
        rep = try_invert(DiffOp.dx(2, 0), XI2, 0, floor=-32)
        assert rep.ok and rep.inverse.terms == {((0,), 1): Poly.const(1)}

    @pytest.mark.parametrize("floor, message", [
        (-math.inf, r"^window floor -inf below -32$"),
        (math.inf, r"^window floor inf is not a finite integer$"),
        (-4.0, r"^window floor -4.0 is not a finite integer$"),
    ])
    def test_window_floor_must_be_a_finite_integer(self, floor, message):
        with pytest.raises(InvalidParameter, match=message):
            try_invert(DiffOp.dx(2, 0), XI2, 0, floor=floor)

    @pytest.mark.xfail(
        strict=True,
        reason="micro_multiply prunes each push at floor + i2*korder and "
        "ignores the order |k1| that the left factor's term adds",
    )
    def test_an_exact_inverse_inside_the_window_is_found(self):
        # `invert --p 2 --expr d1^5 --mprime 2 --window-floor -6` prints
        # `text: 0`.  T = d^4, so d^5 has the exact inverse d^3 T^-2, of
        # order -5, inside the window; at floor -8 it is found
        want = {((3,), 2): Poly.const(1)}
        assert try_invert(DiffOp.dx(2, 0, 5), XI2, 2, floor=-8).inverse.terms == want
        rep = try_invert(DiffOp.dx(2, 0, 5), XI2, 2, floor=-6)
        assert rep.inverse.terms == want
        assert rep.left_residual_below_floor and rep.right_residual_below_floor


class TestOneMemoPerInversion:
    """try_invert's products share one ad_T memo; the path where each
    product has a fresh memo is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(inversion_inputs())
    @example((DiffOp.dx(2, 0) - DiffOp.x(2, 0), XI2, 0, -6, False))
    @example((DiffOp.dx(2, 1) - DiffOp.x(2, 1), XI2, 1, -12, False))
    def test_a_shared_memo_gives_the_same_report(self, args):
        with counting_commutators() as shared:
            got = inversion_outcome(*args)
        with counting_commutators() as fresh, fresh_memo_per_product():
            want = inversion_outcome(*args)
        assert got == want
        assert shared[0] <= fresh[0]


# -- reference products: each right operand rebuilt per left term, sums
# through dict.get, the product through the constructor, and the residual
# certificates and psi image canonicalized again ------------------------------


def reference_right_decompose(D: DiffOp) -> dict:
    out = {}
    rest = D
    while not rest.is_zero():
        n = rest.order()
        top = {k: c for k, c in rest.terms.items() if sum(k) == n}
        sub = DiffOp.zero(D.p, D.m, D.d)
        for k, c in top.items():
            out[k] = out.get(k, Poly.zero(D.d)) + c
            mono = DiffOp(D.p, D.m, D.d, {k: Poly.const(1, D.d)})
            sub = sub + mono * DiffOp.from_poly(c, D.p, D.m)
        rest = rest - sub
    return {k: c for k, c in out.items() if not c.is_zero()}


def reference_micro_multiply(P: MicroOp, Q: MicroOp, *, memo=None) -> MicroOp:
    P._check(Q)
    if P.side != "left":
        return reference_convert_presentation(
            reference_micro_multiply(
                reference_convert_presentation(P, "left"),
                reference_convert_presentation(Q, "left"),
                memo=memo,
            ),
            P.side,
        )
    T = P.localizer().op
    korder = P.localizer_order
    if P.is_zero() or Q.is_zero():
        return P.with_terms({}, floor=max(P.floor, Q.floor))
    floor = max(P.floor + Q.order(), Q.floor + P.order())
    out = {}
    if memo is None:
        memo = {}
    for (k1, i1), b1 in P.terms.items():
        left = DiffOp(P.p, P.level, P.d, {k1: b1})
        for (k2, i2), b2 in Q.terms.items():
            right = DiffOp(P.p, P.level, P.d, {k2: b2})
            sub_floor = floor + i2 * korder
            pushed = _push(T, i1, right, sub_floor, korder, True, memo)
            for t, D in pushed.items():
                prod = left * D
                i = t + i2
                for k, c in prod.terms.items():
                    key = (k, i)
                    out[key] = out.get(key, Poly.zero(P.d)) + c
    return MicroOp(
        P.theta, P.level, P.mprime, out, "left", floor, P.laurent or Q.laurent
    ).canonical()


def reference_convert_presentation(P: MicroOp, target_side: str) -> MicroOp:
    if P.side == target_side:
        return P
    T = P.localizer().op
    to_left = target_side == "left"
    out = {}
    memo = {}
    for (k, i), b in P.terms.items():
        if to_left:
            Q = DiffOp(P.p, P.level, P.d, {k: Poly.const(1, P.d)}) * DiffOp.from_poly(b, P.p, P.level)
        else:
            Q = DiffOp(P.p, P.level, P.d, {k: b})
        for t, D in _push(T, i, Q, P.floor, P.localizer_order, to_left, memo).items():
            for kk, c in (D.terms if to_left else reference_right_decompose(D)).items():
                key = (kk, t)
                out[key] = out.get(key, Poly.zero(P.d)) + c
    return MicroOp(P.theta, P.level, P.mprime, out, target_side, P.floor, P.laurent)


def reference_try_invert(P, theta, mprime, floor, laurent=False) -> InversionReport:
    if isinstance(P, DiffOp):
        P = MicroOp.from_diffop(P, theta, mprime, laurent=laurent)
    elif (P.theta, P.mprime) != (theta, mprime):
        raise IncompatibleLocalizer(
            f"P is presented over theta = {P.theta}, m' = {P.mprime}, "
            f"not theta = {theta}, m' = {mprime}"
        )
    P = P.canonical()
    if P.is_zero():
        raise SymbolMismatch("the zero operator is not invertible")
    check_window(floor)
    laurent = laurent or P.laurent
    korder = P.localizer_order
    w = P.order()
    top = P.order_part(w)
    if len(top) != 1:
        raise SymbolMismatch("top symbol is not a single monomial")
    ((k0, i0r),) = top.keys()
    c0 = top[(k0, i0r)]
    if not c0.is_unit(laurent):
        raise SymbolMismatch(f"top coefficient {c0} is not a unit on the chart")
    if P.d != 1:
        raise SymbolMismatch("inversion is implemented for d = 1")
    P = P.truncate(floor)
    memo = {}
    t = max(0, -(-w // korder))
    ks = t * korder - w
    S0 = P.with_terms({((ks,), t): 1}, floor=floor)
    R = reference_micro_multiply(P, S0, memo=memo)
    gamma = R.order_part(0)
    if list(gamma.keys()) != [((0,) * P.d, 0)]:
        raise SymbolMismatch("leading product term is not scalar")
    g = gamma[((0,) * P.d, 0)]
    ginv = Poly.const(1, P.d).divide_exact(g, laurent)
    if ginv is None:
        raise SymbolMismatch(f"leading coefficient {g} is not invertible on the chart")
    S0 = S0.scale(ginv)
    one = MicroOp.one(theta, P.level, mprime, floor=floor, laurent=laurent)
    if ginv.is_constant():
        e = R.scale(ginv) - one
    else:
        e = reference_micro_multiply(P, S0, memo=memo) - one
    acc = one
    termop = one
    while True:
        termop = reference_micro_multiply(termop, -e, memo=memo)
        if termop.is_zero() or termop.order() < floor:
            break
        acc = acc + termop
    S = reference_micro_multiply(S0, acc, memo=memo)
    left_res = reference_micro_multiply(P, S, memo=memo) - one
    right_res = reference_micro_multiply(S, P, memo=memo) - one
    lok = left_res.truncate(left_res.floor + 1).canonical().is_zero()
    rok = right_res.truncate(right_res.floor + 1).canonical().is_zero()
    profile = validate_convergence(S)
    ok = lok and rok and profile.bounded
    note = "" if ok else (
        "unbounded convergence profile in window" if not profile.bounded else "residual above floor"
    )
    return InversionReport(ok, S, profile, lok, rok, note)


def reference_membership_intermediate(P: MicroOp, m: int) -> MembershipVerdict:
    mprime = P.level
    Pc = P.canonical()
    if not Pc.is_integral():
        bad = min(
            (c.p_valuation(P.p), (k, i)) for (k, i), c in Pc.terms.items()
        )
        return MembershipVerdict(
            "NotInEm'", f"level-{mprime} coefficient at {bad[1]} has valuation {bad[0]}"
        )
    if Pc.floor > 0:
        return MembershipVerdict(
            "Undetermined", f"window floor {Pc.floor} hides orders in [0, {Pc.floor})"
        )
    image = psi_level_lower(Pc, m)
    worst = None
    for (k, i), c in image.canonical().terms.items():
        if sum(k) - i * P.localizer_order < 0:
            continue
        v = c.p_valuation(P.p)
        if v < 0 and (worst is None or v < worst[0]):
            worst = (v, (k, i))
    if worst is not None:
        return MembershipVerdict(
            "OnlyInEm'",
            f"psi image term {worst[1]} has valuation {worst[0]} at order >= 0",
        )
    return MembershipVerdict("InEmm'", "integral at level m' and psi image integral for orders >= 0")


@st.composite
def chart_micro_pairs(draw):
    """Two left MicroOps on one localizer and one chart, and a window floor
    w: p = 2 or 3, 0 <= m <= m' <= 2, theta = xi, or x*xi at m' <= 1,
    either chart; up to three (k, i) terms each with k <= korder + 2 and
    i <= 2, coefficients with x-exponents in 0..2, and floors and w in
    -8..0 (each floor also -inf for xi, whose ad_T ends on polynomials)."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    mp = draw(st.integers(m, 2))
    laurent = draw(st.booleans())
    x_xi = mp <= 1 and draw(st.booleans())
    theta = SymbolPoly(p, 0, 1, {(1,): Poly.var() if x_xi else Poly.const(1)})
    floors = st.sampled_from([*([] if x_xi else [-math.inf]), *range(-8, 1)])
    polys = st.dictionaries(
        st.tuples(st.integers(0, 2)), st.integers(-4, 4), max_size=2
    ).map(lambda c: Poly(1, c))
    keys = st.tuples(st.tuples(st.integers(0, p**mp + 2)), st.integers(0, 2))
    pair = [
        MicroOp(theta, m, mp, draw(st.dictionaries(keys, polys, max_size=3)),
                floor=draw(floors), laurent=laurent)
        for _ in range(2)
    ]
    return pair, draw(st.integers(-8, 0))


def assert_canonical(P: MicroOp):
    assert P.terms == P.canonical().terms


class TestCanonicalAsItIs:
    """The forms that try_invert and membership_intermediate read without
    canonicalizing them again are canonical already."""

    @settings(max_examples=200, deadline=None)
    @given(chart_micro_pairs())
    def test_a_product_comes_back_canonical(self, args):
        (A, B), _ = args
        assert_canonical(micro_multiply(A, B))

    @settings(max_examples=200, deadline=None)
    @given(chart_micro_pairs())
    def test_a_residual_cut_at_its_floor_is_canonical(self, args):
        # subtracting 1 touches only T^0, and a cut keeps each bucket's tops
        (A, B), w = args
        one = MicroOp.one(A.theta, A.level, A.mprime, floor=w, laurent=A.laurent)
        res = micro_multiply(A, B) - one
        assert_canonical(res.truncate(res.floor + 1))

    @settings(max_examples=200, deadline=None)
    @given(chart_micro_pairs(), st.integers(0, 2))
    def test_psi_keeps_the_canonical_form(self, args, m):
        # psi rescales each term by a nonzero constant, so the same tops divide
        (A, _), _ = args
        assert_canonical(psi_level_lower(A.canonical(), min(m, A.level)))


class TestReference:
    """The library's products, conversions, inversions and membership
    verdicts agree with the reference versions above on random inputs."""

    @settings(max_examples=100, deadline=None)
    @given(chart_micro_pairs())
    def test_products_match(self, args):
        (A, B), _ = args
        for side in ("left", "right"):
            A, B = convert_presentation(A, side), convert_presentation(B, side)
            got, want = micro_multiply(A, B), reference_micro_multiply(A, B)
            assert got.terms == want.terms
            assert got.to_json() == want.to_json()

    @settings(max_examples=100, deadline=None)
    @given(chart_micro_pairs())
    def test_conversions_match(self, args):
        (A, _), _ = args
        right = convert_presentation(A, "right")
        want = reference_convert_presentation(A, "right")
        assert right.terms == want.terms and right.to_json() == want.to_json()
        back = convert_presentation(right, "left")
        want = reference_convert_presentation(right, "left")
        assert back.terms == want.terms and back.to_json() == want.to_json()

    @settings(max_examples=40, deadline=None)
    @given(inversion_inputs())
    @example((DiffOp.dx(2, 0) - DiffOp.x(2, 0), XI2, 0, -6, False))
    @example((DiffOp.dx(2, 1) - DiffOp.x(2, 1), XI2, 1, -12, False))
    @example((DiffOp.dx(2, 0, 5), XI2, 2, -6, False))
    def test_inversion_reports_match(self, args):
        # the outcome holds the inverse's to_json(), every term in it
        assert inversion_outcome(*args) == inversion_outcome(*args, invert=reference_try_invert)

    @settings(max_examples=100, deadline=None)
    @given(chart_micro_pairs(), st.integers(0, 2))
    def test_membership_verdicts_match(self, args, m):
        (A, _), _ = args
        P = MicroOp(A.theta, A.mprime, A.mprime, A.terms, floor=A.floor, laurent=A.laurent)
        m = min(m, P.level)
        assert membership_intermediate(P, m) == reference_membership_intermediate(P, m)


class TestConvergence:
    def test_finite_integral_bounded(self):
        P = MicroOp(XI2, 0, 1, {((3,), 1): 7, ((0,), 0): 1})
        prof = validate_convergence(P)
        assert prof.bounded and all(b <= 0 for b in prof.betas.values())

    def test_zero(self):
        prof = validate_convergence(MicroOp(XI2, 0, 1, {}))
        assert prof.bounded and prof.betas == {}


class TestPsi:
    def test_frozen_example(self):
        Tinv = invert_theta_tilde(XI2, 1, 1, floor=-8)
        img = psi_level_lower(Tinv, 0)
        assert img.terms == {((0,), 1): Poly.const(2)}

    def test_identity(self):
        P = MicroOp(XI2, 1, 2, {((3,), 1): Poly.var()})
        assert psi_level_lower(P, 1) == P

    def test_functoriality(self):
        rng = random.Random(23)
        count = 0
        for _ in range(30):
            P = rand_micro(rng, XI2, 2, 2)
            via = psi_level_lower(psi_level_lower(P, 1), 0)
            direct = psi_level_lower(P, 0)
            assert via.terms == direct.terms
            count += 1
        assert count == 30

    def test_strictness(self):
        rng = random.Random(29)
        for _ in range(20):
            P = rand_micro(rng, XI3, 1, 1)
            if P.is_zero():
                continue
            assert psi_level_lower(P, 0).order() == P.order()

    def test_gr_coherence(self):
        # gr of psi = rational level change combined with the r-constants:
        # on xi^<1><2> (Theta^(1))^-1, p=2
        P = MicroOp(XI2, 1, 1, {((2,), 1): 1})
        img = psi_level_lower(P, 0)
        # top symbol of image: constants from both paths agree
        ((k, i),) = img.terms
        got = img.terms[(k, i)]
        # path 2: move the symbol xi^<1><2> to level 0 (constant 2| q-shift),
        # and the localizer by r_{0,1}^{n i} = 2
        sym = rational_level_change(SymbolPoly.xi(2, 1, 2), 0)
        want = sym.terms[(2,)].constant_term() * 2
        assert got.constant_term() == want

    def test_round_trip_exact(self):
        rng = random.Random(31)
        for _ in range(15):
            P = rand_micro(rng, XI2, 2, 2)
            back = change_presentation_level(psi_level_lower(P, 0), 2)
            assert back == P


class TestMembership:
    def test_theta_inverse_in_intermediate(self):
        Q = MicroOp(XI2, 1, 2, {((0,), 1): 1})
        assert membership_intermediate(Q, 0).status == "InEmm'"

    def test_divided_power_only_upper(self):
        P = MicroOp.from_diffop(DiffOp.dx(2, 1, 2), XI2, 1)
        assert membership_intermediate(P, 0).status == "OnlyInEm'"

    def test_negative_order_automatic(self):
        # any integral element of order <= 0 is in E^(m,m')
        rng = random.Random(37)
        for _ in range(20):
            P = rand_micro(rng, XI2, 1, 1, maxk=1, maxi=2)
            if P.is_zero() or P.order() > 0 or not P.is_integral():
                continue
            assert membership_intermediate(P, 0).status == "InEmm'"

    def test_monotone_in_m(self):
        # InEmm' for (m-1, m') implies InEmm' for (m, m')
        rng = random.Random(41)
        for _ in range(30):
            P = rand_micro(rng, XI2, 2, 2, maxk=6, maxi=2)
            if P.is_zero() or not P.is_integral():
                continue
            low = membership_intermediate(P, 0).status
            high = membership_intermediate(P, 1).status
            if low == "InEmm'":
                assert high == "InEmm'"

    def test_undetermined_on_shallow_window(self):
        P = MicroOp(XI2, 1, 1, {((3,), 1): 1}, floor=2)
        assert membership_intermediate(P, 0).status == "Undetermined"

    def test_nonintegral_input(self):
        P = MicroOp(XI2, 1, 1, {((1,), 0): Fraction(1, 2)})
        assert membership_intermediate(P, 0).status == "NotInEm'"


class TestNormcalc:
    def test_frozen_thresholds(self):
        assert normcalc_bounds(1, 2, 0, 1, 5)["a_k"] == 0  # d p^(m'+1) = 4 < 5
        assert alpha_bound(0, 0, 2, 1) == 2
        assert normcalc_bounds(1, 2, 0, 2, 1)["b_k"] == 0  # k=1 < p^(m+1)

    def test_b_is_exact_shift_valuation(self):
        for p in (2, 3):
            for m in range(2):
                for mp in range(m, 3):
                    for k in range(0, 2 * p**mp + 8):
                        b = normcalc_bounds(1, p, m, mp, k)["b_k"]
                        v = valuation(level_shift_constant(k, p, mp, m), p)
                        assert v == -b

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_bound_certifies_presentations(self, p):
        # p^(a_k) * D^<m><l> (T^(m,m'))^(-i) integral at level m' for order >= k
        for m in (0, 1):
            for mp in range(m, 3):
                korder = p**mp
                for k in range(0, 2 * korder + 1):
                    a_k = normcalc_bounds(1, p, m, mp, k)["a_k"]
                    obs = observed_a_bound(p, m, mp, k, imax=3)
                    assert obs <= a_k, (p, m, mp, k, obs, a_k)

    def test_zero_a_above_threshold(self):
        for p in (2, 3):
            for mp in (1, 2):
                k = p ** (mp + 1) + 1
                assert normcalc_bounds(1, p, 0, mp, k)["a_k"] == 0


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = random.Random(53)
        for _ in range(10):
            P = rand_micro(rng, XI2, 1, 2).truncate(-7)
            blob = json.dumps(P.to_json(), sort_keys=True)
            back = MicroOp.from_json(json.loads(blob))
            assert back.terms == P.terms
            assert back._meta() == P._meta()
            assert back.floor == P.floor
            assert json.dumps(back.to_json(), sort_keys=True) == blob


def push_in_one_pass(T, i, Q, floor, korder, signed):
    """The binomial series of the commutation engine, for i >= 1:
    T^(-i) Q = sum_s (-1)^s C(i+s-1, s) ad_T^s(Q) T^(-i-s) (signed) and
    Q T^(-i) = sum_s C(i+s-1, s) T^(-i-s) ad_T^s(Q) (unsigned), each term
    kept while the order of ad_T^s(Q) less (i+s)*korder reaches the floor;
    ad_T lowers that order, so the first term below it ends the series."""
    out = {}
    c, s = Q, 0
    while not c.is_zero() and c.order() - (i + s) * korder >= floor:
        sign = -1 if signed and s % 2 else 1
        out[i + s] = c.scale(sign * math.comb(i + s - 1, s))
        c = T.commutator(c)
        s += 1
    return out


class TestPushSeries:
    """_push moves T^(-i) past Q one power of T at a time; the one-pass
    binomial series gives the same dict."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_iterated_push_is_the_binomial_series(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        m = data.draw(st.integers(0, 2))
        mp = data.draw(st.integers(m, 2))
        # theta = xi, or (1 + x)*xi, whose T does not commute with x
        coeff = Poly.from_univariate([1, 1]) if mp <= 1 and data.draw(st.booleans()) else 1
        T = build_theta_tilde(SymbolPoly(p, 0, 1, {(1,): coeff}), m, mp).op
        polys = st.dictionaries(
            st.tuples(st.integers(-1, 3)), st.integers(-4, 4), min_size=1, max_size=2
        ).map(lambda c: Poly(1, c))
        Q = DiffOp(p, m, 1, data.draw(st.dictionaries(
            st.tuples(st.integers(0, 4)), polys, min_size=1, max_size=3)))
        i = data.draw(st.integers(1, 4))
        floor = data.draw(st.integers(-12, 2))
        signed = data.draw(st.booleans())
        got = _push(T, i, Q, floor, T.order(), signed, {})
        assert got == push_in_one_pass(T, i, Q, floor, T.order(), signed)


def _push_by_search(T, i, Q, floor, korder, signed, memo):
    """_push as it was before nilpotency was decided up front: at an exact
    floor every T is searched, and SearchBoundExceeded comes after
    4*(|ord D| + xdeg D + 8) commutators."""
    if Q.is_zero():
        return {}
    cur = {0: Q}
    for remaining in range(i - 1, -1, -1):
        nxt = {}
        for t, D in cur.items():
            c = D
            s = 0
            while not c.is_zero():
                if c.order() - (t + s + 1 + remaining) * korder < floor:
                    break
                if floor == -math.inf and s > 4 * (abs(D.order()) + D.max_xdeg() + 8):
                    raise SearchBoundExceeded("commutation series does not terminate")
                piece = c if (s % 2 == 0 or not signed) else -c
                key = t + s + 1
                nxt[key] = nxt.get(key, DiffOp.zero(D.p, D.m, D.d)) + piece
                ad = memo.get(c)
                if ad is None:
                    ad = memo[c] = T.commutator(c)
                c = ad
                s += 1
        cur = {t: D for t, D in nxt.items() if not D.is_zero()}
    return cur


class TestExactFloorRefusal:
    """At an exact floor and a one-term localizer c*D^<m><K> with c a
    constant, _push decides nilpotency before any commutator; the search up
    to a step bound gives the same outcome."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_early_refusal_is_the_search_outcome(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        m = data.draw(st.integers(0, 1))
        mp = data.draw(st.integers(m, 1))
        d = data.draw(st.integers(1, 2))
        xi = SymbolPoly.xi(p, 0, 1, data.draw(st.integers(0, d - 1)), d)
        T = build_theta_tilde(xi.scale(data.draw(st.sampled_from([1, -3]))), m, mp).op
        polys = st.dictionaries(
            st.tuples(*[st.integers(-1, 2)] * d), st.integers(-3, 3), min_size=1, max_size=2
        ).map(lambda c: Poly(d, c))
        Q = DiffOp(p, m, d, data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * d), polys, min_size=1, max_size=2)))
        i = data.draw(st.integers(0, 2))
        signed = data.draw(st.booleans())
        args = (T, i, Q, -math.inf, T.order(), signed)
        try:
            want = _push_by_search(*args, {})
        except SearchBoundExceeded:
            with counting_commutators() as calls, pytest.raises(SearchBoundExceeded):
                _push(*args, {})
            assert calls == [0]
        else:
            assert _push(*args, {}) == want


class TestOreWitness:
    """(s', r) = ore_witness(s, a) satisfies a * s' = s * r exactly."""

    def test_zero_a(self):
        sp, r = ore_witness(DiffOp.dx(2, 0), DiffOp.zero(2, 0))
        assert sp == DiffOp.one(2, 0) and r.is_zero()

    def test_commutative_style_witness(self):
        # constant-coefficient a and s commute: the witness is (s, a)
        s = DiffOp.dx(2, 0)
        a = DiffOp.dx(2, 0, 3)
        sp, r = ore_witness(s, a)
        assert a * sp == s * r and (sp, r) == (s, a)

    def test_x_against_d(self):
        s = DiffOp.dx(2, 0)
        a = DiffOp.x(2, 0)
        sp, r = ore_witness(s, a)
        assert a * sp == s * r
        assert not sp.is_zero() and not r.is_zero()

    def test_x_against_d_minus_x(self):
        s = DiffOp.dx(3, 0) - DiffOp.x(3, 0)
        a = DiffOp.x(3, 0)
        sp, r = ore_witness(s, a)
        assert a * sp == s * r and not sp.is_zero()

    def test_not_nilpotent_raises(self):
        # ad_{x d}(x) = x is never zero, so no power of x d is a witness
        s = DiffOp.x(2, 0) * DiffOp.dx(2, 0)
        with pytest.raises(SearchBoundExceeded):
            ore_witness(s, DiffOp.x(2, 0))

    def test_exact_floor_product_raises(self):
        # theta = x*xi makes T = x d, and ad_T(x) = x: pushing T^-1 past x
        # never ends, so an exact (-inf) floor has no finite answer
        th = SymbolPoly(2, 0, 1, {(1,): Poly.var()})
        Tinv = MicroOp(th, 0, 0, {((0,), 1): 1}, laurent=True)
        x = MicroOp.from_diffop(DiffOp.x(2, 0), th, 0, laurent=True)
        with pytest.raises(SearchBoundExceeded):
            micro_multiply(Tinv, x)

    def test_exact_floor_conversion_raises(self):
        # T^-1 x, presented on the right, turns left by the same endless push
        th = SymbolPoly(2, 0, 1, {(1,): Poly.var()})
        P = MicroOp(th, 0, 0, {((0,), 1): Poly.var()}, side="right", laurent=True)
        with pytest.raises(SearchBoundExceeded):
            convert_presentation(P, "left")

    def test_level1_witness(self):
        s = DiffOp.dx(2, 1, 2)
        a = DiffOp.x(2, 1)
        sp, r = ore_witness(s, a)
        assert a * sp == s * r

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_witness_identity_at_theta_xi(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        m = data.draw(st.integers(0, 2))
        mp = data.draw(st.integers(m, 2))
        polys = st.dictionaries(
            st.tuples(st.integers(0, 3)), st.integers(-4, 4), max_size=3
        ).map(lambda c: Poly(1, c))
        terms = data.draw(st.dictionaries(st.tuples(st.integers(0, 4)), polys, max_size=3))
        a = DiffOp(p, m, 1, terms)
        T = build_theta_tilde(SymbolPoly.xi(p, 0), m, mp).op
        sp, r = ore_witness(T, a)
        N = 0
        c = a
        while not c.is_zero():
            c = T.commutator(c)
            N += 1
        assert sp == T**N
        assert a * sp == T * r
