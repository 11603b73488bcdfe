"""Answers computed apart from microdiff.

Nothing here imports microdiff.  Operators are level-0 pseudo-differential
operators on the line, stored as {order: {x-exponent: Fraction}} with the
coefficient to the left of the power of d; x-exponents may be negative (the
chart where x is a unit).  Mod-p classification uses sympy directly, so it
keeps working if the program stops using sympy.
"""

from fractions import Fraction
from math import factorial

import sympy

X = sympy.Symbol("x")


# -- Laurent polynomials and pseudo-differential operators --------------------


def padd(f, g, scale=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: Fraction(c) for e, c in out.items() if c}


def _pmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: Fraction(c) for e, c in out.items() if c}


def _pderiv(f, j=1):
    for _ in range(j):
        f = {e - 1: c * e for e, c in f.items() if e}
    return f


def _binom(alpha, j):
    """Generalized binomial coefficient C(alpha, j), alpha any integer."""
    num = 1
    for t in range(j):
        num *= alpha - t
    return Fraction(num, factorial(j))


def op_from_terms(terms):
    """Relation spec (coefficient, x-power, d-power) -> operator dict."""
    out = {}
    for c, a, b in terms:
        out[b] = padd(out.get(b, {}), {a: Fraction(c)})
    return {k: v for k, v in out.items() if v}


def op_mul(P, Q, floor):
    """P * Q, dropping orders below floor; (a d^s)(b d^t) =
    sum_j C(s, j) a b^(j) d^(s+t-j)."""
    out = {}
    for s, a in P.items():
        for t, b in Q.items():
            j = 0
            while s + t - j >= floor:
                if s >= 0 and j > s:
                    break
                db = _pderiv(b, j)
                if db:
                    term = {e: _binom(s, j) * c for e, c in _pmul(a, db).items()}
                    out[s + t - j] = padd(out.get(s + t - j, {}), term)
                j += 1
    return {k: v for k, v in out.items() if v}


# -- closed-form inverses (left presentations over the localizer d) ---------


def inverse_d_minus_c(c, floor):
    """(d - c)^-1 = sum_n c^(n-1) d^-n."""
    return {-n: {0: Fraction(c) ** (n - 1)} for n in range(1, -floor + 1) if c or n == 1}


def inverse_d_minus_f(f, floor):
    """(d - f)^-1 = sum_n a_n d^-n with a_1 = 1, a_(n+1) = f a_n - a_n'."""
    out, a = {}, {0: Fraction(1)}
    for n in range(1, -floor + 1):
        if a:
            out[-n] = a
        a = padd(_pmul(f, a), _pderiv(a), scale=-1)
    return out


def inverse_xd_minus_lambda(lam, floor):
    """(x d - lam)^-1 = sum_n (lam+1)...(lam+n-1) x^-n d^-n, x a unit."""
    out, c = {}, Fraction(1)
    for n in range(1, -floor + 1):
        if c:
            out[-n] = {-n: c}
        c *= lam + n
    return out


def inverse_oracle(family, param, floor):
    if family == "d-c":
        return op_from_terms(((1, 0, 1), (-param, 0, 0))), inverse_d_minus_c(param, floor)
    if family == "d-x":
        return op_from_terms(((1, 0, 1), (-1, 1, 0))), inverse_d_minus_f({1: Fraction(1)}, floor)
    if family == "xd-lam":
        return op_from_terms(((1, 1, 1), (-param, 0, 0))), inverse_xd_minus_lambda(param, floor)
    raise ValueError(family)


# -- characteristic varieties on the (x, Xi)-chart ---------------------------


def _gf(coeffs, p):
    """{exponent: rational} -> sympy Poly over GF(p)."""
    poly = {}
    for e, c in coeffs.items():
        c = Fraction(c)
        poly[(e,)] = c.numerator * pow(c.denominator, -1, p) % p
    return sympy.Poly(poly or {(0,): 0}, X, modulus=p)


def _name(q):
    return sympy.sstr(q.as_expr())


def classify(gens, p):
    """V of homogeneous generators f(x) Xi^a over GF(p), as
    (char_class, zero_section, fibers, points)."""
    gens = [(a, f) for a, f in gens if not f.is_zero]
    if not gens:
        return ("whole-space", True, [], [])
    base = [f for a, f in gens if a == 0]  # cuts the whole fiber over V(f)
    cone = [f for a, f in gens if a > 0]  # cuts V(f) union {Xi = 0}
    if not base:
        g = cone[0]
        for f in cone[1:]:
            g = sympy.gcd(g, f)
        fibers = sorted(_name(q) for q, _ in g.factor_list()[1]) if g.degree() > 0 else []
        return ("zero-section-and-fibers" if fibers else "zero-section", True, fibers, [])
    g0 = base[0]
    for f in base[1:]:
        g0 = sympy.gcd(g0, f)
    if g0.degree() <= 0:
        return ("empty", False, [], [])
    fibers, points = [], []
    for q, _ in g0.factor_list()[1]:
        (fibers if all(f.rem(q).is_zero for f in cone) else points).append(_name(q))
    cls = {(True, True): "points-and-fibers", (True, False): "fiber-set",
           (False, True): "point-set"}[(bool(fibers), bool(points))]
    return (cls, False, sorted(fibers), sorted(points))


def level0_variety(terms, p):
    """Char^(0)(D/(P)) = V(sigma(P) mod p): the top-order coefficient f of P
    gives the single generator f(x) Xi^order."""
    P = op_from_terms(terms)
    n = max(P)
    return classify([(n, _gf(P[n], p))], p)


# Char^(m), m >= 1, derived by hand (see README):
#   D/(d): zero section;  D/(x): the fiber over x = 0;  D/(1): empty;
#   D/(d-1): empty, since d^p = p! D^<m><p> vanishes mod p while d = 1;
#   D/(d-x) at p = 2, level 1: the fiber over x = 1 (the source paper).
HAND_TABLE = {
    "d": ("zero-section", True, [], []),
    "x": ("fiber-set", False, ["x"], []),
    "1": ("empty", False, [], []),
    "d-1": ("empty", False, [], []),
}


def expected_variety(rel, terms, p, level):
    if level == 0:
        return level0_variety(terms, p)
    if rel in HAND_TABLE:
        return HAND_TABLE[rel]
    if (rel, p, level) == ("d-x", 2, 1):
        return ("fiber-set", False, ["x + 1"], [])
    return None


def reclassify(leading, p, m):
    """Re-derive the variety from a standard basis's mod-p leading data
    [(order n, {x-exponent: coefficient})]: f(x) xi^<m><n> survives mod p
    only when p^m divides n, as f(x) Xi^(n / p^m)."""
    q = p**m
    return classify([(n // q, _gf(f, p)) for n, f in leading if n % q == 0], p)


# -- formulas behind the CLI expectations ---------------------------------------


def divided_const(k, p, m):
    """c with D^<m><k> = c d^k, from k! D^<m><k> = q! d^k, k = p^m q + r."""
    return Fraction(factorial(k // p**m), factorial(k))


def r_constant(p, m, mprime):
    """r_(m,m') = (p^m')! / (p^m!)^(p^(m'-m))."""
    return Fraction(factorial(p**mprime), factorial(p**m) ** (p ** (mprime - m)))


def normcalc(d, p, m, mprime, k):
    """a_k and b_k of the (m, m') comparison at order k."""
    alpha = {s: max(0, (Fraction(d) - Fraction(k, p ** (s + 1)) + 1).__floor__())
             for s in range(m, mprime)}
    a_k = 0 if d * p ** (mprime + 1) < k else sum(alpha.values())
    b_k = sum(k // p**i for i in range(m + 1, mprime + 1))
    return {"a_k": a_k, "b_k": b_k, "alpha": {str(s): v for s, v in alpha.items()}}
