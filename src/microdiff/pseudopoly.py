"""Level-m pseudo-polynomial algebras: the commutative graded rings where
principal symbols of level-m differential operators live.

For each level m the algebra is generated over the coefficient ring by
xi_j^<m><p^i> for i = 0..m, subject to

    (xi_j^<m><p^i>)^p = ((p^(i+1))! / (p^i!)^p) * xi_j^<m><p^(i+1)>.

Internally everything is stored in the <m><k>-basis (one generator
xi_j^<m><k> per exponent k, with k! xi^<m><k> = q_k! xi^k under the rational
lift); the digit presentation (c_0,...,c_m) is available for display and for
mod-p computations, the two being equal up to explicit p-adic units.

``TermSum`` holds the sums and scaling of every finite sum of Poly
coefficients here, microdifferential operators included; ``TermAlgebra``
adds what this algebra shares with the operator ring of ``diffop``, and
``SymbolPoly`` the commutative product.  ``rational_level_change`` rescales
between divided bases; to level 0 it is the rational lift.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import InvalidParameter, LevelMismatch, NotHomogeneous
from .padic import (
    INF,
    binomial_structure_constant_exact,
    divided_lift,
    level_shift_constant,
    valuation,
)
from .polynomials import Poly, power, render_terms

# No localizer has an order n*p^m' above this: at p = 2, `invert --expr d1`
# took 0.24 s of CPU at --mprime 14 (order 2^14), 2.9 s at 16 and 29 s at 18,
# on one Xeon core; each step of m' costs 2.5 to 5 times more.
MAX_LOCALIZER_ORDER = 2**14

# No window floor lies below this: `invert --p 2 --expr "d1 - x1" --mprime 0`
# took 1.8 s of CPU at -32, 4.7 s at -48 and 33 s at -96, on one Xeon core.
MIN_WINDOW_FLOOR = -32


def check_window(floor):
    """Reject a requested window floor that is not a finite integer >=
    MIN_WINDOW_FLOOR.  Only a request is checked: a MicroOp floor may drift
    lower inside products, and -inf there means exact."""
    if floor < MIN_WINDOW_FLOOR:
        raise InvalidParameter(f"window floor {floor} below {MIN_WINDOW_FLOOR}")
    if not isinstance(floor, int):
        raise InvalidParameter(f"window floor {floor} is not a finite integer")


def digit_decomposition(k: int, p: int, m: int):
    """Digits (c_0,...,c_m) of k with c_i < p for i < m, c_m unbounded."""
    digits = []
    for _ in range(m):
        digits.append(k % p)
        k //= p
    digits.append(k)
    return tuple(digits)


def digits_to_k(digits, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def leading_divides(a: int, n: int, p: int, m: int) -> bool:
    """Whether xi^<m><a> divides xi^<m><n> up to a p-adic unit: a <= n digit
    by digit, the top part c_m taken whole.  By Kummer that is when
    binomial_structure_constant_exact(p, m, (n-a,), (a,)) is a p-unit."""
    return all(map(operator.le, digit_decomposition(a, p, m), digit_decomposition(n, p, m)))


def leading_lcm(a: int, b: int, p: int, m: int) -> int:
    """The least n that a and b divide (``leading_divides``): the digit-wise
    max of the m low digits, and the max of the top parts."""
    return digits_to_k(map(max, digit_decomposition(a, p, m), digit_decomposition(b, p, m)), p)


def digit_monomial_constant(digits, p: int, m: int) -> Fraction:
    """Exact u with prod_i (xi^<m><p^i>)^(c_i) = u * xi^<m><k>, k = sum c_i p^i.

    Valid for arbitrary nonnegative digits (overflowing ones included); digit
    carries are absorbed into the constant.
    """
    if len(digits) != m + 1:
        raise ValueError("need one digit per generator index 0..m")
    k = digits_to_k(digits, p)
    u = Fraction(1)
    for i, c in enumerate(digits):
        u *= divided_lift(p**i, p, m) ** c
    return u / divided_lift(k, p, m)


def digit_form(k: int, p: int, m: int):
    """Normal-form digits of xi^<m><k> and the unit u with
    digit-monomial = u * xi^<m><k>."""
    digits = digit_decomposition(k, p, m)
    u = digit_monomial_constant(digits, p, m)
    assert valuation(u, p) == 0, "normal-form conversion constant must be a unit"
    return digits, u


class TermSum:
    """Sums and scaling of a finite sum of nonzero Poly coefficients in
    x_1..x_d, keyed by basis element (``TermAlgebra``: an exponent k;
    ``microloc.MicroOp``: a pair (k, i) with a localizer power i).  A
    subclass checks a key in ``_key``, which returns None for a term the
    sum leaves out, builds a sum like itself in ``with_terms``, and lifts
    another value onto its own kind in ``lift``."""

    __slots__ = ()

    def _set_terms(self, terms):
        """Checked keys, number coefficients as constant Polys, no zeros."""
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if isinstance(c, (int, Fraction)):
                c = Poly.const(c, self.d)
            if key is not None and not c.is_zero():
                clean[key] = c
        self.terms = clean

    def _exponent(self, k):
        """k as a length-d tuple of integers >= 0; ValueError otherwise."""
        k = tuple(int(e) for e in k)
        if len(k) != self.d or any(e < 0 for e in k):
            raise ValueError(f"bad exponent {k}")
        return k

    def is_zero(self):
        return not self.terms

    def p_valuation(self):
        if not self.terms:
            return INF
        return min(c.p_valuation(self.p) for c in self.terms.values())

    def is_integral(self):
        return self.is_zero() or self.p_valuation() >= 0

    def _merged(self, other) -> dict:
        """The terms of self + other, for two sums that ``_check`` passed."""
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Poly.zero(self.d)) + c
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            other = self.lift(other)
        self._check(other)
        return self.with_terms(self._merged(other))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self.with_terms({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Poly.const(c, self.d)
        return self.with_terms({key: c * v for key, v in self.terms.items()})


class TermAlgebra(TermSum):
    """Finite sum of coeff * prod_j g_j^<m><k_j> over a divided basis g^<m><k>.

    The level-m operator ring (``DiffOp``, g = D) and its graded symbol
    algebra (``SymbolPoly``, g = xi) share this structure at fixed (p, m, d);
    each subclass adds its own product.  ``terms`` maps exponent
    multi-indices k (length-d tuples of integers >= 0) to nonzero Poly
    coefficients in x_1..x_d.  The degree (for operators, the order) of a
    term is |k| = sum k_j.
    """

    __slots__ = ("p", "m", "d", "terms")

    def __init__(self, p: int, m: int, d: int, terms=None):
        self.p = p
        self.m = m
        self.d = d
        self._set_terms(terms)

    _key = TermSum._exponent

    def with_terms(self, terms):
        return type(self)(self.p, self.m, self.d, terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p, m, d=1):
        return cls(p, m, d, {})

    @classmethod
    def one(cls, p, m, d=1):
        return cls(p, m, d, {(0,) * d: Poly.const(1, d)})

    @classmethod
    def scalar(cls, c, p, m, d=1):
        return cls(p, m, d, {(0,) * d: Poly.const(c, d)})

    @classmethod
    def basis(cls, p, m, k=1, j=0, d=1):
        """The basis element g_j^<m><k>."""
        exp = [0] * d
        exp[j] = k
        return cls(p, m, d, {tuple(exp): Poly.const(1, d)})

    # -- views ------------------------------------------------------------

    def degree(self):
        if not self.terms:
            return -INF
        return max(sum(k) for k in self.terms)

    def coefficient(self, k) -> Poly:
        return self.terms.get(tuple(k), Poly.zero(self.d))

    def mod_p(self):
        """Coefficient-wise reduction mod p (requires p-integrality)."""
        return self.with_terms({k: c.mod_p(self.p) for k, c in self.terms.items()})

    # -- operands, powers, equality -----------------------------------------

    def _check(self, other):
        if type(other) is not type(self):
            raise LevelMismatch(
                f"cannot combine a {type(self).__name__} with a {type(other).__name__}"
            )
        if (self.p, self.m, self.d) != (other.p, other.m, other.d):
            raise LevelMismatch(
                f"(p,m,d)={(self.p, self.m, self.d)} vs {(other.p, other.m, other.d)}"
            )

    def __add__(self, other):
        if isinstance(other, TermSum) and not isinstance(other, TermAlgebra):
            return NotImplemented  # a MicroOp, which lifts this one in __radd__
        return TermSum.__add__(self, other)

    def lift(self, c):
        """A number c as an element like this one; any other value as it is."""
        if isinstance(c, (int, Fraction)):
            return type(self).scalar(c, self.p, self.m, self.d)
        return c

    def __pow__(self, n):
        return power(self, n, type(self).one(self.p, self.m, self.d))

    def __eq__(self, other):
        other = self.lift(other)
        return (
            type(other) is type(self)
            and (self.p, self.m, self.d) == (other.p, other.m, other.d)
            and self.terms == other.terms
        )

    def __hash__(self):
        # a scalar equals its number (__eq__ lifts numbers): an element with
        # no key but k = 0 hashes as that coefficient, which for a scalar is
        # a constant Poly and hashes as its number
        if len(self.terms) < 2 and not any(map(any, self.terms)):
            return hash(next(iter(self.terms.values()), 0))
        return hash((self.p, self.m, self.d, frozenset(self.terms.items())))


class SymbolPoly(TermAlgebra):
    """Element of the level-m pseudo-polynomial algebra in d variables:
    a sum of coeff * prod_j xi_j^<m><k_j>."""

    __slots__ = ()

    xi = classmethod(TermAlgebra.basis.__func__)

    def is_homogeneous(self):
        degs = {sum(k) for k in self.terms}
        return len(degs) <= 1

    def top_part(self):
        if not self.terms:
            return self
        n = self.degree()
        return self.with_terms({k: c for k, c in self.terms.items() if sum(k) == n})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                const = binomial_structure_constant_exact(self.p, self.m, k1, k2)
                add = (c1 * c2).scale(const)
                out[k] = out.get(k, Poly.zero(self.d)) + add
        return SymbolPoly(self.p, self.m, self.d, out)

    __rmul__ = __mul__

    def to_plain(self) -> "SymbolPoly":
        """Image under xi^<m><k> -> (q_k!/k!) xi^k, as a level-0 SymbolPoly."""
        return rational_level_change(self, 0)

    def _gen(self, j, kj):
        if self.d == 1:
            if self.m:
                return f"xi{self.m}[{kj}]"
            return f"xi^{kj}" if kj > 1 else "xi"
        # like render_diffop's D1[m,k] and the parser's xi<j>
        if self.m:
            return f"xi{j + 1}[{self.m},{kj}]"
        return f"xi{j + 1}^{kj}" if kj > 1 else f"xi{j + 1}"

    def __str__(self):
        return render_terms(self.terms, self._gen)

    __repr__ = __str__


def normalize(p: int, m: int, d: int, raw_terms) -> SymbolPoly:
    """Resolve digit overflow: raw_terms maps per-coordinate digit vectors
    (tuples of d tuples, each of length m+1, arbitrary nonneg entries) to
    coefficients; returns the symbol in <m><k>-basis normal form."""
    out = {}
    for digit_vecs, coeff in raw_terms.items():
        if isinstance(coeff, (int, Fraction)):
            coeff = Poly.const(coeff, d)
        const = Fraction(1)
        k = []
        for dv in digit_vecs:
            const *= digit_monomial_constant(dv, p, m)
            k.append(digits_to_k(dv, p))
        k = tuple(k)
        add = coeff.scale(const)
        out[k] = out.get(k, Poly.zero(d)) + add
    return SymbolPoly(p, m, d, out)


def level_changed(terms: dict, p: int, m: int, mprime: int) -> dict:
    """Terms on the <m><k> basis rewritten on the <m'><k> basis, exact over
    Q in either direction: g^<m><k> = (q_k^(m)! / q_k^(m')!) g^<m'><k> per
    coordinate.  To level 0 it is the rational lift g^<m><k> ->
    (q_k!/k!) g^k, the plain basis of the Leibniz rule.  At m == m' every
    constant is q_k!/q_k! = 1, so the terms come back as they are (the same
    dict, which callers only read)."""
    if m == mprime:
        return terms
    out = {}
    for k, c in terms.items():
        const = Fraction(1)
        for kj in k:
            const *= level_shift_constant(kj, p, m, mprime)
        out[k] = c.scale(const)
    return out


def rational_level_change(f, mprime: int):
    """Re-express a SymbolPoly or DiffOp f at level mprime over Q (exact, any
    direction).  On symbols it is the Q-algebra isomorphism to level
    mprime; ``DiffOp.level_shift`` is this function."""
    return type(f)(f.p, mprime, f.d, level_changed(f.terms, f.p, f.m, mprime))


def check_theta(theta: SymbolPoly, m: int, mprime: int):
    """Reject what cannot be a localizer symbol at levels (m, m'): theta must
    be a nonzero homogeneous level-0 symbol of degree n >= 1, 0 <= m <= m',
    and the localizer order n*p^m' at most MAX_LOCALIZER_ORDER."""
    if theta.m != 0:
        raise LevelMismatch("theta must be a level-0 symbol")
    n = theta.degree()
    if not theta.is_homogeneous() or n < 1:  # the zero symbol has degree -inf
        raise NotHomogeneous("theta must be nonzero homogeneous of degree >= 1")
    if not 0 <= m <= mprime:
        raise LevelMismatch(f"need 0 <= m <= m', got m = {m} and m' = {mprime}")
    # p^m' is above the cap once m' reaches its bit length: no huge power
    cap = MAX_LOCALIZER_ORDER
    if n * theta.p ** min(mprime, cap.bit_length()) > cap:
        raise InvalidParameter(f"localizer order n*p^m' above {cap} at m' = {mprime}")


def theta_variants(theta: SymbolPoly, m: int, mprime: int):
    """(Theta^(m'), Theta^(m,m')) built from a level-0 homogeneous symbol.

    Theta^(m')   = sum a_k^(p^m') xi^<m'>, exponents k*p^m', at level m'.
    Theta^(m,m') = the same expression read at level m; satisfies
    Theta^(m,m') = r_{m,m'}^n * Theta^(m') under rational_level_change.
    """
    check_theta(theta, m, mprime)
    p, d = theta.p, theta.d
    q, j = p**mprime, mprime - m
    # each term a*xi^k is a power of xi_c^<l><p^l> per coordinate c: the top
    # digit kj at level m', kj*p^j at level m
    twisted = [(k, a**q) for k, a in theta.terms.items()]
    hi = normalize(p, mprime, d, {
        tuple((0,) * mprime + (kj,) for kj in k): a for k, a in twisted
    })
    lo = normalize(p, m, d, {
        tuple((0,) * m + (kj * p**j,) for kj in k): a for k, a in twisted
    })
    return hi, lo
