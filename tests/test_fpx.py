"""F_p[x] arithmetic, factoring and rendering, with sympy as the oracle."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdiff.fpx import Fpx, _mul
from microdiff.polynomials import Poly

X = sympy.Symbol("x")
PRIMES = (2, 3, 5, 7)
MAX_DEG = 24


def oracle(f: Fpx):
    return sympy.Poly(list(reversed(f.c)) or [0], X, modulus=f.p)


def sstr(q) -> str:
    return sympy.sstr(q.as_expr())


@st.composite
def dense(draw, p=None):
    """A polynomial of degree <= 24 with uniform coefficients."""
    p = p or draw(st.sampled_from(PRIMES))
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=MAX_DEG + 1))
    return Fpx(p, coeffs)


@st.composite
def products(draw):
    """c * prod g_j^(e_j) of degree <= 24, with repeated factors and p-th
    powers, the inputs that exercise the square-free step."""
    p = draw(st.sampled_from(PRIMES))
    out = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5)) + [1]
        for _ in range(draw(st.sampled_from([1, 2, p, p + 1]))):
            if len(out) + len(g) - 2 <= MAX_DEG:
                out = _mul(out, g, p)
    return Fpx(p, out)


def factors(f: Fpx):
    return sorted((str(q), e) for q, e in f.factor_list())


def oracle_factors(f: Fpx):
    return sorted((sstr(q), e) for q, e in oracle(f).factor_list()[1])


# the traps: symmetric coefficients, monic factors, the one reordered shape
TRAPS = [
    (5, [3, 1], "x - 2"),
    (5, [1, 0, 3], "1 - 2*x**2"),
    (5, [2, 0, 0, 4], "2 - x**3"),
    (7, [1, 6], "1 - x"),
    (5, [1, 1, 0, 4], "-x**3 + x + 1"),
    (5, [0, 1, 4], "-x**2 + x"),
    (5, [4, 1, 3], "-2*x**2 + x - 1"),
    (5, [4, 0, 3], "-2*x**2 - 1"),
    (2, [1, 1], "x + 1"),
    (3, [0, 2], "-x"),
    (5, [3], "-2"),
    (5, [], "0"),
]


@pytest.mark.parametrize("p, coeffs, text", TRAPS)
def test_render_traps(p, coeffs, text):
    assert str(Fpx(p, coeffs)) == text


def test_render_exhaustive_degree_3_p5():
    for coeffs in itertools.product(range(5), repeat=4):
        f = Fpx(5, coeffs)
        assert str(f) == sstr(oracle(f)), coeffs


def test_factors_are_monic():
    # 3x^2 + 1 = 3(x^2 + 2) at p = 5
    assert factors(Fpx(5, [1, 0, 3])) == [("x**2 + 2", 1)]


@settings(max_examples=150, deadline=None)
@given(products())
@example(Fpx(5, [1, 0, 3]))
@example(Fpx(2, [1, 0, 1]))  # (x + 1)^2
@example(Fpx(2, [1, 0, 0, 0, 1]))  # (x + 1)^4
@example(Fpx(3, [0, 2, 0, 1]))  # x^3 - x, every root of F_3
@example(Fpx(3, [1, 0, 0, 0, 0, 0, 1]))  # (x^2 + 1)^3
@example(Fpx(2, [1, 1, 1, 0, 1, 0, 1]))  # x^6 + x^4 + x^2 + x + 1
@example(Fpx(7, [5]))  # a unit has no factors
def test_factor_list_matches_sympy(f):
    assert factors(f) == oracle_factors(f)


@settings(max_examples=100, deadline=None)
@given(dense())
@example(Fpx(2, [1] * 25))
@example(Fpx(7, [0] * 24 + [3]))
@example(Fpx(3, []))
def test_random_factor_list_matches_sympy(f):
    assert factors(f) == oracle_factors(f)


@st.composite
def pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(dense(p)), draw(dense(p))


@settings(max_examples=150, deadline=None)
@given(pairs())
@example((Fpx(5, [3, 1]), Fpx(5, [1, 0, 3])))
@example((Fpx(5, [1, 1, 0, 4]), Fpx(5, [0, 1, 4])))
@example((Fpx(3, [1, 0, 1]), Fpx(3, [])))
@example((Fpx(2, []), Fpx(2, [])))
def test_gcd_rem_render_match_sympy(fg):
    f, g = fg
    F, G = oracle(f), oracle(g)
    assert str(f) == sstr(F) and str(g) == sstr(G)
    assert str(f.gcd(g)) == sstr(F.gcd(G))
    if not f.is_zero():
        assert f.degree() == F.degree()
        assert str(f.monic()) == sstr(F.monic())
    if not g.is_zero():
        assert str(f.rem(g)) == sstr(F.rem(G))


def test_from_poly():
    f = Poly(1, {(0,): Fraction(1, 3), (2,): 6, (3,): 5})
    assert Fpx.from_poly(f, 5) == Fpx(5, [2, 0, 1])
    assert Fpx.from_poly(Poly.zero(1), 5).is_zero()
    with pytest.raises(ValueError):
        Fpx.from_poly(Poly(1, {(-1,): 1}), 5)
