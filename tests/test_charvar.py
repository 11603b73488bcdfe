"""Characteristic varieties, support tests, and the counterexample suite."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff import charvar
from microdiff.cli import Session, parse
from microdiff.diffop import DiffOp
from microdiff.errors import BoundsExhausted, InvalidParameter, LevelMismatch
from microdiff.microloc import try_invert
from microdiff.padic import binomial_structure_constant_exact, residue, valuation
from microdiff.polynomials import Poly
from microdiff.pseudopoly import SymbolPoly, leading_divides
from microdiff.charvar import (
    Bounds,
    CyclicModule,
    _element,
    _lc,
    _normal_form,
    _shifted,
    char_variety,
    micro_support_test,
    order_standard_basis,
    stability_probe,
    verify_counterexample,
)


def D(p, m=0):
    return DiffOp.dx(p, m)


def X(p, m=0, power=1):
    return DiffOp.x(p, m, power=power)


def module(p, m, *rels):
    return CyclicModule(p, m, list(rels))


# -- standard bases ----------------------------------------------------------------


class TestOrderStandardBasis:
    def test_single_relation_level0(self):
        # derived: D/(d-x): the relation is already a standard basis
        sb = order_standard_basis(module(2, 0, D(2) - X(2)))
        assert sb.complete
        assert len(sb.basis) == 1
        assert sb.leading[0][0] == 1

    def test_unit_ideal(self):
        # trivially true D/(1)
        sb = order_standard_basis(module(2, 0, DiffOp.one(2, 0)))
        assert sb.complete
        assert sb.leading[0] == (0, Poly.const(1))

    def test_zero_ideal(self):
        sb = order_standard_basis(CyclicModule(2, 0, []))
        assert sb.complete and sb.basis == []

    @pytest.mark.parametrize("p,m", [(4, 0), (1, 0), (2, -1)])
    def test_bad_prime_or_level_rejected(self, p, m):
        with pytest.raises(InvalidParameter):
            CyclicModule(p, m, [])

    @pytest.mark.parametrize("rel, error, message", [
        ("d", InvalidParameter, "relations must be DiffOps"),
        (DiffOp.dx(3, 0), LevelMismatch, "relation level/prime mismatch"),
        (DiffOp.dx(2, 1), LevelMismatch, "relation level/prime mismatch"),
        (DiffOp.dx(2, 0, 1, 0, 2), InvalidParameter, r"only the affine line \(d = 1\) is supported"),
    ], ids=["not-a-diffop", "prime-mismatch", "level-mismatch", "plane"])
    def test_bad_relation_rejected(self, rel, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            CyclicModule(2, 0, [rel])

    def test_denominators_cleared(self):
        M = module(2, 0, (D(2) - X(2)).scale(Fraction(1, 4)))
        assert all(P.is_integral() and P.p_valuation() == 0 for P in M.relations)

    def test_level1_digit_overflow_element(self):
        # derived by hand: at level 1, p=2: d*(d-x) reduces to
        # 2*D[1,2] - x^2 - 1, whose mod-2 lead is (x+1)^2 in degree 0
        sb = order_standard_basis(module(2, 1, (D(2) - X(2)).level_shift(1)))
        assert sb.complete
        assert len(sb.basis) == 2
        leads = sorted((n, f.degree()) for n, f in sb.leading)
        assert leads == [(0, 2), (1, 0)]
        g2 = next(g for g in sb.basis if g.order() == 2)
        assert g2 == DiffOp(2, 1, 1, {
            (2,): Poly.const(2),
            (1,): Poly.var().scale(-2),
            (0,): Poly.from_univariate([-1, 0, 1]),
        })

    def test_soundness_original_generators_reduce(self):
        from microdiff.charvar import _element, _normal_form

        sb = order_standard_basis(module(2, 1, (D(2) - X(2)).level_shift(1)))
        elements = [_element(g) for g in sb.basis]
        for P in module(2, 1, (D(2) - X(2)).level_shift(1)).relations:
            assert _normal_form(P, elements, sb.bounds).is_zero()

    def test_reducer_whose_structure_constant_is_a_unit(self):
        # at p = 2 and level 0 the structure constant of d * d is 1, a unit,
        # so d reduces x*d^2 = (x*d)*d and no 1*Xi^2 joins the basis; x*Xi^2
        # stays, since relations are admitted unreduced
        cv = char_variety(module(2, 0, D(2), X(2) * D(2) ** 2))
        assert cv.generators == ["1*Xi^1", "x*Xi^2"]
        assert cv.char_class == char_variety(module(2, 0, D(2))).char_class

    def test_basis_elements_are_integral_content_zero(self):
        for lvl in (0, 1, 2):
            sb = order_standard_basis(
                module(2, lvl, (D(2) - X(2)).level_shift(lvl))
            )
            for g in sb.basis:
                assert g.is_integral() and g.p_valuation() == 0


# Standard bases of multi-relation modules under default Bounds: the order in
# which S-pairs are queued fixes the basis, so every element, its leading
# data, the pair count, the complete flag and the notes are pinned.
BASES = json.loads((Path(__file__).parent / "golden" / "standard-bases.json").read_text())


@pytest.mark.parametrize(
    "case", BASES, ids=lambda c: f"p{c['p']}-m{c['m']}-" + ",".join(c["rels"])
)
def test_multi_relation_standard_basis_is_pinned(case):
    session = Session(case["p"])
    rels = [parse(r, session).level_shift(case["m"]) for r in case["rels"]]
    sb = order_standard_basis(CyclicModule(case["p"], case["m"], rels))
    assert [str(g) for g in sb.basis] == case["basis"]
    assert [[n, str(f)] for n, f in sb.leading] == case["leading"]
    assert (sb.pairs_checked, sb.complete, sb.notes) == (
        case["pairs_checked"], case["complete"], case["notes"],
    )


# -- the normal form against its Mora-style oracle -----------------------------------


def _shifted_by_products(el, n, deg):
    """_shifted as it was: x^s D^<m><a> built by up to two products, then
    one more product with g."""
    g, ng, fg, deg_fg, _ = el
    p, m = g.p, g.m
    a, s = n - ng, deg - deg_fg
    mono = DiffOp.dx(p, m, a) if a else DiffOp.one(p, m)
    if s:
        mono = DiffOp.x(p, m, power=s) * mono
    c = binomial_structure_constant_exact(p, m, (a,), (ng,))
    return mono * g, residue(c * _lc(fg), p)


def _two_lift_step(P, pick, n, deg, f):
    """A normal-form step as it was: both mod-p lifts lam and lam - p of the
    cancellation factor, keeping whichever leaves more p-content behind.
    Returns the new P and its p-content."""
    red, u = _shifted_by_products(pick, n, deg)
    lam = residue(_lc(f) / u, P.p)
    P1 = P - red.scale(lam)
    P2 = P - red.scale(lam - P.p)
    v1, v2 = P1.p_valuation(), P2.p_valuation()
    return (P2, v2) if v2 > v1 else (P1, v1)


def _normal_form_two_lifts(P, basis, bounds):
    """_normal_form as it was, with the reducer of three products and the
    step of two lifts."""
    p = P.p
    steps = 0
    divisions = 0
    seen = set()
    v = P.p_valuation()
    while not P.is_zero():
        if v:
            divisions += v
            P = P.scale(Fraction(1, 1) / Fraction(p) ** v)
        if P in seen or divisions >= bounds.precision:
            return DiffOp.zero(p, P.m, P.d)
        seen.add(P)
        if P.order() > bounds.max_order or P.max_xdeg() > bounds.max_xdeg:
            raise BoundsExhausted(
                f"normal form left the bounded region "
                f"(order {P.order()}, x-degree {P.max_xdeg()})"
            )
        _, n, f, deg, _ = _element(P)
        fits = [el for el in basis if el[3] <= deg and leading_divides(el[1], n, p, P.m)]
        if not fits:
            return P
        P, v = _two_lift_step(P, min(fits, key=lambda el: el[4]), n, deg, f)
        steps += 1
        if steps > bounds.max_steps:
            raise BoundsExhausted("normal form exceeded the step budget")
    return P


def basis_by_two_lifts(M, bounds):
    """order_standard_basis with the reducer and the normal form as they were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charvar, "_shifted", _shifted_by_products)
        mp.setattr(charvar, "_normal_form", _normal_form_two_lifts)
        return order_standard_basis(M, bounds)


def _normal_form_with_pool(P, basis, bounds):
    """_normal_form as it was with Mora's pool of intermediate reducers: the
    fit test is a memoized structure-constant valuation, every intermediate
    joins the pool, a revisit with more p-divisions is passed over (it then
    cycles up to the precision cap), and one with none raises "cycled"."""
    p = P.p
    steps = 0
    divisions = 0
    extra = []
    seen = {}
    units = {}

    def best(pool, n, deg):
        fits = []
        for el in pool:
            _, ng, _, deg_fg, _ = el
            if ng <= n and deg_fg <= deg:
                unit = units.get((n - ng, ng))
                if unit is None:
                    c = binomial_structure_constant_exact(p, P.m, (n - ng,), (ng,))
                    unit = units[n - ng, ng] = valuation(c, p) == 0
                if unit:
                    fits.append(el)
        return min(fits, key=lambda el: el[4], default=None)

    v = P.p_valuation()
    while not P.is_zero():
        if v:
            divisions += v
            if divisions >= bounds.precision:
                return DiffOp.zero(p, P.m, P.d)
            P = P.scale(Fraction(1, 1) / Fraction(p) ** v)
        if P.order() > bounds.max_order or P.max_xdeg() > bounds.max_xdeg:
            raise BoundsExhausted(
                f"normal form left the bounded region "
                f"(order {P.order()}, x-degree {P.max_xdeg()})"
            )
        if seen.get(P) == divisions:
            raise BoundsExhausted("reduction cycled without p-adic progress")
        seen[P] = divisions
        el = _element(P)
        _, n, f, deg, _ = el
        pick = best(basis, n, deg) or best(extra, n, deg)
        if pick is None:
            return P
        extra.append(el)
        P, v = _two_lift_step(P, pick, n, deg, f)
        steps += 1
        if steps > bounds.max_steps:
            raise BoundsExhausted("normal form exceeded the step budget")
    return P


def _lcm_over_every_digit(a, b, p, m):
    """The S-pair lcm as it was: a digit-wise max over every base-p digit,
    also above the m low ones."""
    n, q = 0, 1
    while a or b:
        n += max(a % p, b % p) * q
        a //= p
        b //= p
        q *= p
    return n


@st.composite
def random_modules(draw):
    """A module at p = 2 or 3 and level 0..2 with one to three relations,
    each of up to two terms D^<m><k>, k <= 2, whose coefficients have up to
    two terms of x-degree <= 2 and coefficients in -3..3."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 2))
    poly = st.dictionaries(st.tuples(st.integers(0, 2)), st.integers(-3, 3), min_size=1, max_size=2)
    rel = st.dictionaries(st.tuples(st.integers(0, 2)), poly.map(lambda c: Poly(1, c)),
                          min_size=1, max_size=2)
    return CyclicModule(p, m, [DiffOp(p, m, 1, t) for t in draw(st.lists(rel, min_size=1, max_size=3))])


def char_key(cv):
    return cv.char_class, cv.fibers, cv.points, cv.zero_section


class TestNormalFormOracle:
    """The order owner, the revisit proof and the level lcm against the
    Mora-style reduction with its pool and the lcm over every digit, within
    bounds small enough for a test."""

    BOUNDS = Bounds(max_order=6, max_xdeg=6, max_steps=100)
    DEEP = Bounds(max_order=6, max_xdeg=6, max_steps=100, precision=60)
    # room for the oracle to run a cycle until its precision cap
    CYCLING = Bounds(max_order=6, max_xdeg=6, max_steps=10**4, precision=60)
    # room for any descent: between two p-divisions the mod-p leading data
    # strictly fall, through at most 7*7 values in BOUNDS, and 20 divisions
    # reach the cap, so no normal form takes 2000 steps
    ROOMY = Bounds(max_order=6, max_xdeg=6, max_steps=2000)

    @settings(max_examples=12, deadline=None)
    @given(random_modules())
    @example(module(3, 0, D(3) * D(3) * DiffOp.scalar(-3, 3, 0),
                    DiffOp(3, 0, 1, {(0,): Poly.const(-2), (2,): Poly(1, {(2,): 2}), (3,): Poly.const(1)})))
    def test_complete_answers_agree(self, M):
        zeros = []

        def recording(P, basis, bounds):
            R = _normal_form(P, basis, bounds)
            if R.is_zero():
                zeros.append((P, list(basis)))
            return R

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charvar, "_normal_form", recording)
            new = char_variety(M, self.BOUNDS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charvar, "_normal_form", _normal_form_with_pool)
            mp.setattr(charvar, "leading_lcm", _lcm_over_every_digit)
            old = char_variety(M, self.BOUNDS)
        if old.complete and not new.complete:
            # an S-pair that the lcm over every digit never formed may need a
            # long p-adic descent (see test_true_s_pair_needs_a_long_descent)
            new = char_variety(M, self.ROOMY)
        if old.complete:
            assert new.complete and char_key(new) == char_key(old)
        # a zero that stands at precision 60 comes from a revisit, an exact
        # cancellation or the cap there; the oracle takes the same path, runs
        # a revisit's cycle again and again, and reaches zero at its cap
        for P, basis in zeros:
            try:
                proved = _normal_form(P, basis, self.DEEP).is_zero()
            except BoundsExhausted:
                proved = False
            if proved:
                assert _normal_form_with_pool(P, basis, self.CYCLING).is_zero()


class TestOneLiftOracle:
    """The reducer of one product and the step of one lift against the three
    products and the two lifts they replaced.  The lifts differ by an ideal
    element, so a basis that the two lifts complete comes out the same."""

    BOUNDS = Bounds(max_order=6, max_xdeg=6, max_steps=100)

    @settings(max_examples=40, deadline=None)
    @given(random_modules(), st.integers(0, 3), st.integers(0, 3))
    def test_reducer_is_the_same_operator(self, M, a, s):
        for g in M.relations:
            el = _element(g)
            n, deg = el[1] + a, el[3] + s
            assert _shifted(el, n, deg) == _shifted_by_products(el, n, deg)

    @settings(max_examples=60, deadline=None)
    @given(random_modules())
    def test_complete_bases_agree(self, M):
        old = basis_by_two_lifts(M, self.BOUNDS)
        if not old.complete:
            return
        new = order_standard_basis(M, self.BOUNDS)
        assert new.complete
        assert [str(g) for g in new.basis] == [str(g) for g in old.basis]
        assert (new.leading, new.pairs_checked, new.notes) == (old.leading, old.pairs_checked, old.notes)
        chart = [charvar._reduced_chart_generators(sb, M.p, M.m) for sb in (new, old)]
        assert charvar._classify(chart[0], M.p) == charvar._classify(chart[1], M.p)


def test_true_s_pair_needs_a_long_descent():
    # The S-pair of -2*d^2 and the relation of order 3 is formed at order 3
    # (at order 5 over every digit, where the basis completed in 3 pairs).
    # Its normal form divides by p about every 21 steps while its x-degree
    # grows, and only the precision cap (20 divisions) ends it: past the
    # default 400 steps, so the basis is complete only with more steps, and
    # then with the Char of the lcm over every digit.
    M = module(3, 0, D(3) * D(3) * DiffOp.scalar(-2, 3, 0), DiffOp(3, 0, 1, {
        (1,): Poly(1, {(1,): 2, (2,): -3}), (2,): Poly(1, {(2,): 1}), (3,): Poly(1, {(0,): -1, (1,): 2}),
    }))
    sb = order_standard_basis(M)
    assert (sb.complete, sb.notes) == (False, ["normal form exceeded the step budget"] * 3)
    cv = char_variety(M, Bounds(max_steps=500))
    assert cv.complete and char_key(cv) == ("zero-section", [], [], True)


# -- characteristic varieties -------------------------------------------------------


class TestCharVariety:
    def test_d_minus_x_level0_zero_section(self):
        # oracle: Char^(0)(D/(d-x)) is the zero section
        cv = char_variety(module(2, 0, D(2) - X(2)))
        assert cv.char_class == "zero-section"
        assert cv.complete and cv.fibers == []

    def test_d_level0_zero_section(self):
        # derived: D/(d) has symbol ideal (xi)
        cv = char_variety(module(2, 0, D(2)))
        assert cv.char_class == "zero-section" and cv.complete

    def test_euler_operator_zero_section_and_fiber(self):
        # derived: sigma(x.d - lambda) = x.xi; V = {xi=0} union {x=0}
        for lam in (0, 1, 2):
            cv = char_variety(
                module(2, 0, X(2) * D(2) - DiffOp.scalar(lam, 2, 0))
            )
            assert cv.char_class == "zero-section-and-fibers"
            assert cv.fibers == ["x"] and cv.complete

    def test_x_fiber_set(self):
        # derived: D/(x): leading symbol ideal (x), full fiber over x=0
        cv = char_variety(module(2, 0, X(2)))
        assert cv.char_class == "fiber-set" and cv.fibers == ["x"]

    def test_unit_ideal_empty(self):
        cv = char_variety(module(2, 0, DiffOp.one(2, 0)))
        assert cv.char_class == "empty"

    def test_zero_ideal_whole_space(self):
        cv = char_variety(CyclicModule(2, 0, []))
        assert cv.char_class == "whole-space"

    def test_counterexample_level1_fiber(self):
        # derived by hand: Char^(1)(D/(d-x)) at p=2: the relation squared
        # is congruent to (x+1)^2 mod 2, and sigma(d-x) is nilpotent mod 2,
        # so the variety is the full fiber over x = -1
        cv = char_variety(module(2, 1, (D(2) - X(2)).level_shift(1)))
        assert cv.complete
        assert cv.char_class == "fiber-set"
        assert cv.fibers == ["x + 1"]

    def test_counterexample_level1_p3(self):
        cv = char_variety(module(3, 1, (D(3) - X(3)).level_shift(1)))
        assert cv.complete and cv.char_class == "fiber-set"

    def test_commutator_makes_unit_ideal(self):
        # d.x - x.d = 1, so relations {x, d} generate the unit ideal and the
        # completion discovers it (the variety cannot be just a point)
        cv = char_variety(module(2, 0, X(2), D(2)))
        assert cv.char_class == "empty" and cv.complete

    def test_point_set_classification(self):
        # the classifier itself: an order-0 generator f(x) whose root does
        # not kill the positive-degree generators leaves only the
        # zero-section point above it
        from microdiff.charvar import _classify
        from microdiff.fpx import Fpx

        gens = [(0, Fpx(2, [0, 1])), (1, Fpx(2, [1, 1]))]  # x, (x + 1)*Xi
        info = _classify(gens, 2)
        assert info["char_class"] == "point-set"
        assert info["points"] == ["x"] and info["fibers"] == []

    def test_points_and_fibers_classification(self):
        # x*(x + 1) cuts the fibers above x and x + 1; (x + 1)*Xi vanishes on
        # the whole fiber above x + 1 but only at Xi = 0 above x
        from microdiff.charvar import _classify
        from microdiff.fpx import Fpx

        gens = [(0, Fpx(2, [0, 1, 1])), (1, Fpx(2, [1, 1]))]  # x*(x + 1), (x + 1)*Xi
        info = _classify(gens, 2)
        assert info["char_class"] == "points-and-fibers"
        assert info["fibers"] == ["x + 1"] and info["points"] == ["x"]
        assert info["zero_section"] is False

    def test_punctured_part(self):
        cv = char_variety(module(2, 0, X(2) * D(2)))
        assert cv.punctured_part() == ["x"]
        cv0 = char_variety(module(2, 0, D(2)))
        assert cv0.punctured_part() == []

    def test_json_roundtrip_fields(self):
        cv = char_variety(module(2, 0, D(2) - X(2)))
        data = cv.to_json()
        assert data["char_class"] == "zero-section"
        assert data["complete"] is True
        assert "max_order" in data["bounds"]


# -- support tests -----------------------------------------------------------------


WINDOW = -8


class TestMicroSupport:
    def test_d_minus_x_level0_vanishes(self):
        # derived: geometric-series inverse certificate on the whole chart
        M = module(2, 0, D(2) - X(2))
        cv = char_variety(M)
        rep = micro_support_test(M, [0], window=WINDOW, char=cv)
        (v,) = rep["levels"][0]
        assert v.chart_class == "generic" and v.verdict == "Vanishes"
        assert rep["crosscheck"]["agree"] is True

    def test_d_minus_x_level1_persists(self):
        # derived: the level-1 expansion has unbounded coefficient
        # valuations; only window-bounded evidence is reported
        M = module(2, 0, D(2) - X(2))
        rep = micro_support_test(M, [1], window=WINDOW)
        (v,) = rep["levels"][1]
        assert v.verdict == "PersistsUpToWindow"
        assert len(v.betas) > 0

    def test_betas_are_order_beta_pairs(self):
        M = module(2, 0, D(2) - X(2))
        rep = micro_support_test(M, [0], window=-6)
        (v,) = rep["levels"][0]
        betas = try_invert(D(2) - X(2), SymbolPoly.xi(2, 0), 0, floor=-6, laurent=True).profile.betas
        assert v.betas == tuple(sorted(betas.items(), reverse=True))

    def test_euler_operator_generic_vanishes_fiber_persists(self):
        M = module(2, 0, X(2) * D(2) - DiffOp.scalar(1, 2, 0))
        cv = char_variety(M)
        rep = micro_support_test(M, [0], window=WINDOW, char=cv)
        verdicts = {v.chart_class: v.verdict for v in rep["levels"][0]}
        assert verdicts["generic"] == "Vanishes"
        assert verdicts["fiber[x]"] == "PersistsUpToWindow"
        assert rep["crosscheck"]["agree"] is True

    def test_unit_module_vanishes_trivially(self):
        # trivially true
        M = module(2, 0, DiffOp.one(2, 0))
        cv = char_variety(M)
        rep = micro_support_test(M, [0], window=WINDOW, char=cv)
        (v,) = rep["levels"][0]
        assert v.verdict == "Vanishes"
        assert rep["crosscheck"]["agree"] is True

    def test_battery_agreement_level0(self):
        # char_variety and micro_support_test agree on the punctured chart
        p = 2
        battery = [
            [D(p) - X(p)],
            [D(p)],
            [X(p) * D(p)],
            [X(p) * D(p) - DiffOp.scalar(1, p, 0)],
            [X(p) * D(p) - DiffOp.scalar(2, p, 0)],
            [X(p)],
            [DiffOp.one(p, 0)],
        ]
        for rels in battery:
            M = CyclicModule(p, 0, rels)
            cv = char_variety(M)
            assert cv.complete
            rep = micro_support_test(M, [0], window=WINDOW, char=cv)
            assert rep["crosscheck"]["agree"] is True

    @pytest.mark.parametrize("window", [-33, -1000, -math.inf, 2.5])
    def test_window_is_checked_without_relations(self, window):
        # a module with no relation never reaches try_invert, and its window
        # is refused all the same
        with pytest.raises(InvalidParameter, match="^window floor "):
            micro_support_test(CyclicModule(2, 0, []), [0], window=window)
        with pytest.raises(InvalidParameter, match="^window floor "):
            micro_support_test(module(2, 0, D(2) - X(2)), [0], window=window)

    def test_window_floor_message(self):
        with pytest.raises(InvalidParameter, match=r"^window floor -inf below -32$"):
            micro_support_test(CyclicModule(2, 0, []), [0], window=-math.inf)
        assert micro_support_test(CyclicModule(2, 0, []), [0], window=-32) == {
            "levels": {0: []}, "crosscheck": None,
        }

    def test_inconclusive_crosscheck_when_no_inverse(self):
        M = module(2, 1, (D(2) - X(2)).level_shift(1))
        cv = char_variety(M)
        rep = micro_support_test(M, [1], window=WINDOW, char=cv)
        assert rep["crosscheck"]["agree"] is None


@st.composite
def raised_modules(draw):
    """A level-0 module at p = 2 or 3 with one or two relations of order
    <= 2, each of up to three terms of x-degree <= 2 with coefficients in
    -3..3; and a level L in 0..2."""
    p = draw(st.sampled_from([2, 3]))
    poly = st.builds(lambda e, c: Poly(1, {(e,): c}), st.integers(0, 2), st.integers(-3, 3))
    rel = st.dictionaries(st.tuples(st.integers(0, 2)), poly, min_size=1, max_size=3)
    rels = draw(st.lists(rel, min_size=1, max_size=2))
    return CyclicModule(p, 0, [DiffOp(p, 0, 1, t) for t in rels]), draw(st.integers(0, 2))


class TestLevelRaised:
    def test_own_level_is_the_module_itself(self):
        for M in (module(2, 0, D(2) - X(2)), module(3, 1), module(2, 2, D(2, 2))):
            assert M.level_raised(M.m) is M

    @pytest.mark.parametrize("rels", [[], [D(2, 1) - X(2, 1)]])
    def test_a_lower_level_is_refused(self, rels):
        with pytest.raises(LevelMismatch, match="^cannot lower the module level 1 to 0$"):
            CyclicModule(2, 1, rels).level_raised(0)

    @settings(max_examples=40, deadline=None)
    @given(raised_modules())
    @example((module(2, 0, X(2) * D(2) * D(2)), 1))
    @example((
        module(
            2, 0,
            (X(2, power=2) - X(2, power=2) * D(2) * D(2)).scale(2),
            DiffOp(2, 0, 1, {(2,): Poly.from_univariate([1, 3, 1])}),
        ),
        2,
    ))
    def test_support_at_a_level_is_that_of_the_raised_module(self, case):
        # both read M.level_raised(L): same verdicts, notes and betas
        M, L = case
        assert micro_support_test(M, [L], window=-6) == micro_support_test(
            M.level_raised(L), [L], window=-6
        )


class TestIncompleteCertificates:
    """Bounds too tight to finish the standard basis: the certificate says
    complete = False, and a note says which bound was hit."""

    @staticmethod
    def d_minus_x_level2():
        return module(2, 0, D(2) - X(2)).level_raised(2)

    def test_pair_queue_truncated_by_step_budget(self):
        sb = order_standard_basis(self.d_minus_x_level2(), Bounds(max_steps=1))
        assert not sb.complete
        assert sb.notes == ["pair queue truncated by step budget"]
        assert not char_variety(self.d_minus_x_level2(), Bounds(max_steps=1)).complete

    def test_truncated_queue_counts_the_pairs_it_checked(self, monkeypatch):
        # each pair checked runs one normal form; an incomplete basis runs no re-check
        M = module(3, 1, DiffOp(3, 1, 1, {(2,): Poly.var(power=2), (0,): Poly.var().scale(-1)}))
        calls = []

        def counting(P, basis, bounds):
            calls.append(P)
            return _normal_form(P, basis, bounds)

        monkeypatch.setattr(charvar, "_normal_form", counting)
        for k in (1, 2, 3):
            calls.clear()
            sb = order_standard_basis(M, Bounds(max_steps=k))
            assert sb.notes == ["pair queue truncated by step budget"]
            assert sb.pairs_checked == len(calls) == k

    def test_normal_form_leaves_bounded_region(self):
        sb = order_standard_basis(self.d_minus_x_level2(), Bounds(max_order=2))
        assert not sb.complete
        assert sb.notes == ["normal form left the bounded region (order 3, x-degree 3)"]

    def test_normal_form_exceeds_step_budget(self):
        sb = order_standard_basis(self.d_minus_x_level2(), Bounds(max_steps=3))
        assert not sb.complete
        assert sb.notes == ["normal form exceeded the step budget"]

    def test_soundness_recheck_leaves_bounded_region(self):
        sb = order_standard_basis(module(2, 0, D(2) * D(2) - X(2)), Bounds(max_order=1))
        assert not sb.complete
        assert sb.notes == ["soundness re-check left the bounded region"]


# -- the counterexample suite -------------------------------------------------------


class TestVerifyCounterexample:
    def test_all_checks_pass_p2(self):
        rep = verify_counterexample(2, n_max=30)
        assert rep["all_ok"]

    def test_all_checks_pass_p3(self):
        rep = verify_counterexample(3, n_max=30)
        assert rep["all_ok"]

    def test_closed_form_small_n_by_hand(self):
        # (-1)^2 f_2 = (x + g_2) + (x^2 + h_2) f_0 with f_1 = -(1 + x f_0):
        # f_2 = 1.f_0 - x.f_1 = x + (1 + x^2) f_0
        x = Poly.var()
        f0 = Poly.var(power=2)  # arbitrary test slot
        f1 = Poly.const(-1) - x * f0
        f2 = f0 - x * f1
        assert f2 == x + (Poly.const(1) + x * x) * f0

    def test_partial_cubed_reduction(self):
        # derived: d^3.e = (x^3 + 3x).e modulo the left ideal (d - x)
        x = Poly.var()
        P = Poly.const(1)
        for _ in range(3):
            P = x * P + P.derivative()
        assert P == Poly.from_univariate([0, 3, 0, 1])

    def test_norm_identity_f0_zero_branch(self):
        # derived: with f_0 = 0 every f_n has Gauss norm exactly 1
        p = 2
        x = Poly.var()
        fprev, fcur = Poly.zero(1), Poly.const(-1)
        for n in range(1, 31):
            assert fcur.p_valuation(p) == 0
            fprev, fcur = fcur, fprev.scale(n) - x * fcur

    def test_recurrence_matches_closed_form_slices(self):
        # coefficient-level agreement between the raw recurrence with a
        # concrete f_0 and the symbolic closed form A_n + B_n f_0
        x = Poly.var()
        f0 = Poly.from_univariate([Fraction(1, 2), 1])
        A = [Poly.zero(1), Poly.const(-1)]
        B = [Poly.const(1), x.scale(-1)]
        for n in range(1, 20):
            A.append(A[n - 1].scale(n) - x * A[n])
            B.append(B[n - 1].scale(n) - x * B[n])
        fprev, fcur = f0, Poly.const(-1) - x * f0
        for n in range(1, 20):
            assert fcur == A[n] + B[n] * f0
            fprev, fcur = fcur, fprev.scale(n) - x * fcur


# -- stability probe ---------------------------------------------------------------


class TestStabilityProbe:
    def test_euler_operator_stable_from_zero(self):
        # derived: sigma(x.d - lambda) = x.xi at every level
        M = module(2, 0, X(2) * D(2) - DiffOp.scalar(1, 2, 0))
        rep = stability_probe(M, 1)
        assert rep["stable_from"] == 0
        assert all(
            r["char"]["char_class"] == "zero-section-and-fibers"
            for r in rep["rows"]
        )

    def test_counterexample_not_stable_at_zero(self):
        # oracle: Char^(0) is the zero section but Char^(1) is a
        # fiber: the level-0 row cannot start a stable tail
        M = module(2, 0, D(2) - X(2))
        rep = stability_probe(M, 2)
        assert rep["rows"][0]["char"]["char_class"] == "zero-section"
        assert rep["rows"][1]["char"]["char_class"] == "fiber-set"
        assert rep["stable_from"] == 1

    def test_unit_module_stable_everywhere(self):
        # trivially true
        rep = stability_probe(module(2, 0, DiffOp.one(2, 0)), 2)
        assert rep["stable_from"] == 0
        assert all(r["char"]["char_class"] == "empty" for r in rep["rows"])

    def test_flags_empty_when_all_complete(self):
        rep = stability_probe(module(2, 0, D(2) - X(2)), 1)
        assert rep["flags"] == []
