"""Dense univariate polynomials over F_p: the arithmetic, factoring and
rendering that the characteristic-variety classifier needs.

Factoring follows Cantor & Zassenhaus (Math. Comp. 36, 1981): square-free,
then distinct-degree, then equal-degree splitting, with the trace map at
p = 2.  The splitting draws from a fixed seed, and the irreducible factors of
a polynomial are unique, so the factor list is deterministic.  ``str`` prints
a polynomial the way ``sympy.sstr`` prints its expression, with coefficients
in the symmetric range.

Internally a polynomial is a list of coefficients in [0, p), lowest degree
first, with no trailing zeros; [] is the zero polynomial.
"""

import random
from itertools import zip_longest

from .padic import residue

_X = [0, 1]


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a, b, p):
    return _trim([(u - v) % p for u, v in zip_longest(a, b, fillvalue=0)])


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return _trim([c % p for c in out])


def _divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for s in range(len(q) - 1, -1, -1):
        c = r[s + len(b) - 1] * inv % p
        q[s] = c
        if c:
            for j, v in enumerate(b):
                r[s + j] = (r[s + j] - c * v) % p
    return _trim(q), _trim(r[: len(b) - 1])


def _rem(a, b, p):
    return _divmod(a, b, p)[1]


def _quo(a, b, p):
    return _divmod(a, b, p)[0]


def _monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p):
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _powmod(a, e, f, p):
    """a^e mod f, for e >= 1."""
    out, base = None, _rem(a, f, p)
    while True:
        if e & 1:
            out = base if out is None else _rem(_mul(out, base, p), f, p)
        e >>= 1
        if not e:
            return out
        base = _rem(_mul(base, base, p), f, p)


def _squarefree(f, p):
    """[(g, e)]: pairwise coprime square-free g with f = prod g^e, f monic."""
    out = []
    deriv = _trim([i * c % p for i, c in enumerate(f)][1:])
    c = _gcd(f, deriv, p)
    w = _quo(f, c, p)
    e = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        g = _quo(w, y, p)
        if len(g) > 1:
            out.append((g, e))
        w, c = y, _quo(c, y, p)
        e += 1
    if len(c) > 1:
        # c is a p-th power, and a^p = a on F_p: its p-th root keeps every
        # p-th coefficient
        out += [(g, k * p) for g, k in _squarefree(c[::p], p)]
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the degree-d irreducible factors of the
    square-free monic f."""
    out = []
    h = _X
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(f, _sub(h, _X, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _quo(f, g, p)
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """The monic irreducible factors of f, a product of distinct
    irreducibles of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue  # a constant splits nothing
        if p == 2:
            # trace map a + a^2 + ... + a^(2^(d-1)): 0 or 1 on each factor
            b = s = a
            for _ in range(d - 1):
                s = _rem(_mul(s, s, p), f, p)
                b = _sub(b, s, p)
        else:
            # a^((p^d - 1)/2) is +1 or -1 on each factor prime to a
            b = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_quo(f, g, p), d, p, rng)


class Fpx:
    """Immutable dense polynomial in x over F_p."""

    __slots__ = ("p", "c")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        self.c = tuple(_trim([int(a) % p for a in coeffs]))

    @classmethod
    def from_poly(cls, f, p: int) -> "Fpx":
        """Image of a univariate ``Poly`` with p-integral coefficients."""
        dense = [0] * (max(f.degree(), -1) + 1)
        for (e,), a in f.coeffs.items():
            if e < 0:
                raise ValueError("Laurent polynomial has no image in F_p[x]")
            dense[e] = residue(a, p)
        return cls(p, dense)

    def degree(self) -> int:
        """Top exponent; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def monic(self) -> "Fpx":
        return Fpx(self.p, _monic(list(self.c), self.p))

    def rem(self, g: "Fpx") -> "Fpx":
        return Fpx(self.p, _rem(list(self.c), list(g.c), self.p))

    def gcd(self, g: "Fpx") -> "Fpx":
        """Monic greatest common divisor."""
        return Fpx(self.p, _gcd(list(self.c), list(g.c), self.p))

    def factor_list(self) -> list:
        """[(q, e)]: the monic irreducible factors q with their
        multiplicities e, sorted by (degree, coefficients); [] for a
        constant."""
        p = self.p
        if self.degree() < 1:
            return []
        rng = random.Random(0)
        out = [
            (Fpx(p, q), e)
            for g, e in _squarefree(_monic(list(self.c), p), p)
            for h, d in _distinct_degree(g, p)
            for q in _equal_degree(h, d, p, rng)
        ]
        return sorted(out, key=lambda qe: (qe[0].degree(), qe[0].c[::-1]))

    def __eq__(self, other):
        return isinstance(other, Fpx) and (self.p, self.c) == (other.p, other.c)

    def __hash__(self):
        return hash((self.p, self.c))

    def __repr__(self):
        return f"Fpx({self.p}, {list(self.c)})"

    def __str__(self):
        """As ``sympy.sstr`` prints the expression of the polynomial over
        GF(p): coefficients in (-p/2, p/2], terms by descending degree, except
        that a negative term followed only by a positive constant prints
        after it (``1 - 2*x**2``)."""
        half = self.p // 2
        terms = [
            (e, a if a <= half else a - self.p)
            for e, a in reversed(list(enumerate(self.c)))
            if a
        ]
        if not terms:
            return "0"
        if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
            terms.reverse()
        out = ""
        for e, a in terms:
            mono = "" if e == 0 else "x" if e == 1 else f"x**{e}"
            if not mono:
                t = str(abs(a))
            elif abs(a) == 1:
                t = mono
            else:
                t = f"{abs(a)}*{mono}"
            if not out:
                out = t if a > 0 else "-" + t
            else:
                out += (" + " if a > 0 else " - ") + t
        return out
