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
