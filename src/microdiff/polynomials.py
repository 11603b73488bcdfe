"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Coefficient rings of all operators in the package.  Negative exponents model
charts on which a coordinate has been inverted (monomial-unit charts); plain
polynomials are the special case with nonnegative support.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import INF, residue, valuation


def power(base, n: int, one):
    """base**n by square-and-multiply, starting from the unit ``one``; the
    base is squared only while exponent bits remain."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def render_terms(terms: dict, gen, coeff=str) -> str:
    """The sum of terms, a dict from exponent tuples e to coefficients c, by
    (degree, e): each term coeff(c)*gen(j, e_j)*... over e_j != 0, with a
    coefficient 1 or -1 folded into the sign and a sum parenthesized."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e)):
        mono = "*".join(gen(j, ej) for j, ej in enumerate(e) if ej)
        cs = coeff(terms[e])
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            cs = f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


class Poly:
    """Immutable sparse polynomial: dict from exponent tuples to Fraction."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        clean = {}
        for exp, c in (coeffs or {}).items():
            # a Fraction and a tuple of ints are taken as they are
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                if type(exp) is not tuple or not all(type(e) is int for e in exp):
                    exp = tuple(int(e) for e in exp)
                if len(exp) != nvars:
                    raise ValueError("exponent arity mismatch")
                clean[exp] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int = 1) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def const(cls, c, nvars: int = 1) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, j: int = 0, nvars: int = 1, power: int = 1) -> "Poly":
        exp = [0] * nvars
        exp[j] = power
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def from_univariate(cls, coeff_list) -> "Poly":
        """Dense list [c0, c1, ...] -> c0 + c1 x + ... (one variable)."""
        return cls(1, {(i,): Fraction(c) for i, c in enumerate(coeff_list)})

    # -- predicates / views -------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def is_unit(self, laurent: bool = False) -> bool:
        """A unit on the chart: a nonzero constant, or any monomial on the
        Laurent chart, where every coordinate is inverted."""
        return len(self.coeffs) == 1 and (laurent or self.is_constant())

    def is_laurent(self) -> bool:
        """True if some exponent is negative."""
        return any(e < 0 for exp in self.coeffs for e in exp)

    def degree(self, j: int = 0):
        """Top exponent of variable j; -INF for the zero polynomial."""
        if not self.coeffs:
            return -INF
        return max(exp[j] for exp in self.coeffs)

    def p_valuation(self, p: int):
        """min_k v_p(coefficient); the Gauss norm is p^(-this). INF for 0."""
        if not self.coeffs:
            return INF
        return min(valuation(c, p) for c in self.coeffs.values())

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented  # e.g. a DiffOp, which scales by a left Poly
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {e: c * v for e, v in self.coeffs.items()})

    def __pow__(self, n: int) -> "Poly":
        return power(self, n, Poly.const(1, self.nvars))

    def derivative(self, j: int = 0) -> "Poly":
        out = {}
        for exp, c in self.coeffs.items():
            if exp[j]:
                e = list(exp)
                e[j] -= 1
                out[tuple(e)] = c * exp[j]
        return Poly(self.nvars, out)

    def map_coeffs(self, f) -> "Poly":
        return Poly(self.nvars, {e: f(c) for e, c in self.coeffs.items()})

    def mod_p(self, p: int) -> "Poly":
        """Reduce integral coefficients mod p; ValueError on a p in a denominator."""
        return self.map_coeffs(lambda c: Fraction(residue(c, p)))

    def divide_exact(self, other: "Poly", laurent: bool = False):
        """Exact quotient self/other, or None.

        Divisors that are single monomials work in any arity (Laurent shifts
        allowed when ``laurent``); otherwise univariate long division with a
        zero-remainder requirement.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)
        if len(other.coeffs) == 1:
            ((exp, c),) = other.coeffs.items()
            out = {}
            for e, v in self.coeffs.items():
                ne = tuple(a - b for a, b in zip(e, exp))
                if not laurent and any(x < 0 for x in ne):
                    return None
                out[ne] = v / c
            return Poly(self.nvars, out)
        if self.nvars != 1 or self.is_laurent() or other.is_laurent():
            return None
        num = dict(self.coeffs)
        dn, cn = other.degree(), other.coeffs[(other.degree(),)]
        quot = {}
        while num:
            dtop = max(e[0] for e in num)
            if dtop < dn:
                return None
            q = num[(dtop,)] / cn
            quot[(dtop - dn,)] = q
            for e, c in other.coeffs.items():
                key = (e[0] + dtop - dn,)
                num[key] = num.get(key, Fraction(0)) - q * c
                if not num[key]:
                    del num[key]
        return Poly(1, quot)

    # -- comparison / hashing / display --------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if len(self.coeffs) < 2 and not any(map(any, self.coeffs)):
            return hash(self.constant_term())
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        names = ["x"] if self.nvars == 1 else [f"x{j + 1}" for j in range(self.nvars)]
        return render_terms(
            self.coeffs, lambda j, e: names[j] if e == 1 else f"{names[j]}^{e}"
        )
