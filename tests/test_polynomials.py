from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdiff.polynomials import Poly


class ItemPairs(list):
    """(exponent, coefficient) pairs read through a dict's items(), so that
    an exponent can be a list, which no dict key can be."""

    def items(self):
        return iter(self)


@st.composite
def raw_coeffs(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 3)] * nvars)
    return nvars, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))


class TestConstruction:
    """A Fraction coefficient and a tuple-of-int exponent are stored as
    they are; anything else is converted, with the same checks."""

    @settings(max_examples=200, deadline=None)
    @given(raw_coeffs())
    def test_any_input_form_builds_the_same_poly(self, raw):
        nvars, coeffs = raw
        want = Poly(nvars, {e: Fraction(c) for e, c in coeffs.items()})
        for form in (
            coeffs,
            ItemPairs((list(e), c) for e, c in coeffs.items()),
            ItemPairs((list(e), Fraction(c)) for e, c in coeffs.items()),
            {tuple(Fraction(x) for x in e): c for e, c in coeffs.items()},
        ):
            P = Poly(nvars, form)
            assert P == want and P.coeffs == want.coeffs
            assert all(type(e) is tuple and all(type(x) is int for x in e) for e in P.coeffs)
            assert all(type(c) is Fraction and c for c in P.coeffs.values())
        assert len(want.coeffs) == sum(1 for c in coeffs.values() if c)

    @pytest.mark.parametrize("exp", [(1, 0), [1, 0], (Fraction(1), 0)],
                             ids=["tuple", "list", "fraction-tuple"])
    @pytest.mark.parametrize("c", [2, Fraction(1, 2)], ids=["int", "fraction"])
    def test_arity_mismatch_raises(self, exp, c):
        with pytest.raises(ValueError, match="arity"):
            Poly(1, ItemPairs([(exp, c)]))


def term_loop_str(P: Poly) -> str:
    """Poly.__str__ as its own loop wrote it before it shared the term
    renderer of operators and symbols: the oracle of the fold."""
    if not P.coeffs:
        return "0"
    names = ["x"] if P.nvars == 1 else [f"x{j + 1}" for j in range(P.nvars)]
    parts = []
    for exp in sorted(P.coeffs, key=lambda e: (sum(e), e)):
        c = P.coeffs[exp]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


@st.composite
def laurent_polys(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * nvars)
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return Poly(nvars, draw(st.dictionaries(exps, coeffs, max_size=5)))


class TestRendering:
    @settings(max_examples=200, deadline=None)
    @given(laurent_polys())
    def test_str_matches_the_term_loop(self, P):
        assert str(P) == term_loop_str(P)

    def test_frozen_strings(self):
        x, y = Poly.var(0, 2), Poly.var(1, 2)
        assert str(Poly.zero(2)) == "0"
        assert str(x * y.scale(-1) + Poly.const(Fraction(1, 2), 2)) == "1/2 - x1*x2"
        assert str(Poly(1, {(-1,): 3, (2,): -1})) == "3*x^-1 - x^2"


class TestUnits:
    @pytest.mark.parametrize("coeffs, plain, laurent", [
        ({(0,): 3}, True, True),
        ({(2,): -1}, False, True),
        ({(-1,): Fraction(1, 2)}, False, True),
        ({(0,): 1, (1,): 1}, False, False),
        ({}, False, False),
    ])
    def test_unit_on_the_chart(self, coeffs, plain, laurent):
        P = Poly(1, coeffs)
        assert P.is_unit() is plain and P.is_unit(laurent=True) is laurent


class TestArgumentChecks:
    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError, match="^variable-count mismatch$"):
            Poly.var() + Poly.var(0, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
            Poly.var().divide_exact(Poly.zero(1))
