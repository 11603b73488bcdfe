"""Level-m rings of differential operators on affine d-space.

Operators are stored as sums a_k(x) * D^<m><k> over the divided basis
defined by k! D^<m><k> = q_k! D^k (k = p^m q + r, 0 <= r < p^m).
Multiplication lifts to the plain D^k basis over Q, applies the Leibniz
rule there, and re-expresses the product in the level-m basis; when both
factors are p-integral the result is certified p-integral.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import (
    IntegralityViolation,
    LevelMismatch,
    NotIntegral,
    SearchBoundExceeded,
    ZeroOperator,
)
from .padic import divided_lift
from .polynomials import Poly
from .pseudopoly import SymbolPoly, TermAlgebra, rational_level_change, theta_variants
from .record import FrozenRecord

INF = math.inf


def _leibniz_into(prod: dict, a_plain: dict, b_plain: dict, sign: int, jmin: int):
    """Add sign * (A B) restricted to |J| >= jmin into prod (M -> exp -> Fraction).

    A and B are plain-basis dicts and
    (a D^K)(b D^L) = sum_{J <= K} binom(K,J) a * D^J(b) * D^(K-J+L).
    """
    for L, b in b_plain.items():
        derivs = {(0,) * len(L): b}  # J -> D^J(b), shared by every K
        for K, a in a_plain.items():
            for J in itertools.product(*[range(kj + 1) for kj in K]):
                if sum(J) < jmin:
                    continue
                db = _derivative(derivs, J)
                if db.is_zero():
                    continue
                binom = sign
                for kj, jj in zip(K, J):
                    binom *= math.comb(kj, jj)
                acc = prod.setdefault(tuple(kj - jj + lj for kj, jj, lj in zip(K, J, L)), {})
                for e1, c1 in a.coeffs.items():
                    c1 *= binom
                    for e2, c2 in db.coeffs.items():
                        e = tuple(u + v for u, v in zip(e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2


def _derivative(derivs: dict, J) -> Poly:
    """D^J(b) from the memo derivs, which holds b at J = 0."""
    db = derivs.get(J)
    if db is None:
        j = next(j for j, e in enumerate(J) if e)
        prev = J[:j] + (J[j] - 1,) + J[j + 1:]
        db = derivs[J] = _derivative(derivs, prev).derivative(j)
    return db


class DiffOp(TermAlgebra):
    """Sum of a_k(x) * D^<m><k>, a_k Laurent polynomials over Q."""

    __slots__ = ()

    dx = classmethod(TermAlgebra.basis.__func__)
    order = TermAlgebra.degree
    to_plain = TermAlgebra.lifted_terms  # dict k -> Poly with P = sum c_k(x) D^k
    level_shift = rational_level_change

    @classmethod
    def from_poly(cls, a: Poly, p, m):
        return cls(p, m, a.nvars, {(0,) * a.nvars: a})

    @classmethod
    def x(cls, p, m, j=0, d=1, power=1):
        return cls(p, m, d, {(0,) * d: Poly.var(j, d, power)})

    def max_xdeg(self):
        if not self.terms:
            return -INF
        return max(c.degree(j) for c in self.terms.values() for j in range(self.d))

    # -- multiplication --------------------------------------------------------

    @classmethod
    def from_plain(cls, plain: dict, p: int, m: int, d: int) -> "DiffOp":
        terms = {}
        for k, c in plain.items():
            const = Fraction(1)
            for kj in k:
                const *= divided_lift(kj, p, m)
            terms[k] = c.scale(1 / const)
        return cls(p, m, d, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):  # a right factor a(x) is the operator a
            other = DiffOp.from_poly(other, self.p, self.m)
        self._check(other)
        prod = {}
        _leibniz_into(prod, self.to_plain(), other.to_plain(), 1, 0)
        return self._from_product(prod, other)

    __rmul__ = TermAlgebra.scale  # a left scalar

    def commutator(self, other):
        """[self, other] = self*other - other*self in one Leibniz pass.

        The J = 0 terms of the two products are a*b*D^(K+L) both ways and
        cancel exactly, so only the multi-indices J != 0 are summed.
        """
        self._check(other)
        a_plain = self.to_plain()
        b_plain = other.to_plain()
        prod = {}
        _leibniz_into(prod, a_plain, b_plain, 1, 1)
        _leibniz_into(prod, b_plain, a_plain, -1, 1)
        return self._from_product(prod, other)

    def _from_product(self, prod, other):
        """Back to the level-m basis; products of integral operators stay integral."""
        plain = {M: Poly(self.d, c) for M, c in prod.items()}
        out = DiffOp.from_plain(plain, self.p, self.m, self.d)
        if not out.is_integral() and self.is_integral() and other.is_integral():
            raise IntegralityViolation("product of integral operators not integral")
        return out

    # -- action, symbols, reductions ---------------------------------------------

    def apply(self, f: Poly) -> Poly:
        """Act on a polynomial (through the rational lift)."""
        out = Poly.zero(self.d)
        for k, c in self.to_plain().items():
            g = f
            for j, kj in enumerate(k):
                for _ in range(kj):
                    g = g.derivative(j)
            out = out + c * g
        return out

    def symbol_exact(self) -> SymbolPoly:
        """Top homogeneous part as a symbol over Q (no mod-p reduction)."""
        return SymbolPoly(self.p, self.m, self.d, self.terms).top_part()


class OrderSymbol(FrozenRecord):
    # symbol: the top symbol over the special fiber (mod p); secondary: None,
    # or (order, symbol) of the first nonvanishing reduction
    _fields = ("order", "symbol", "secondary")


def order_and_symbol(P: DiffOp) -> OrderSymbol:
    """Order and principal symbol over the special fiber.

    When the top symbol vanishes mod p, a secondary (order, symbol) pair of
    the mod-p reduction of P is reported.
    """
    if P.is_zero():
        raise ZeroOperator("the zero operator has no principal symbol")
    if not P.is_integral():
        raise NotIntegral("mod-p symbol needs p-integral coefficients")
    n = P.order()
    top = P.symbol_exact().mod_p()
    secondary = None
    if top.is_zero():
        red = P.mod_p()
        if not red.is_zero():
            secondary = (red.order(), red.symbol_exact())
    return OrderSymbol(n, top, secondary)


def level_map_phi(P: DiffOp, mprime: int) -> DiffOp:
    """The canonical ring map into level m' >= m; stays p-integral."""
    if mprime < P.m:
        raise LevelMismatch("phi only raises the level; use level_shift over Q")
    return P.level_shift(mprime)


def reduce_mod(P: DiffOp, i: int) -> DiffOp:
    """Coefficient-wise reduction mod p^(i+1) (canonical lift back to Z)."""
    if not P.is_integral():
        raise NotIntegral("operator has a p in a denominator")
    mod = P.p ** (i + 1)

    def red(c: Fraction) -> Fraction:
        return Fraction(c.numerator * pow(c.denominator, -1, mod) % mod)

    return DiffOp(P.p, P.m, P.d, {k: c.map_coeffs(red) for k, c in P.terms.items()})


class ThetaTilde(FrozenRecord):
    """The lift of a theta symbol to a differential operator localizer: the
    DiffOp ``op`` and its ``order``, n * p^m' for theta of degree n."""

    _fields = ("op", "order")


@functools.lru_cache(maxsize=64)
def build_theta_tilde(theta: SymbolPoly, m: int, mprime: int) -> ThetaTilde:
    """Theta-tilde at levels (m, m'): the symbol Theta^(m,m') of
    ``theta_variants``, sum_K c_K xi^<m><K>, lifted term by term with each
    coefficient on the left, sum_K c_K D^<m><K>: the localizer of the
    microlocal ring, in both of its presentations.

    Cached: every argument is hashable, and neither SymbolPoly nor DiffOp is
    ever changed in place."""
    _, lo = theta_variants(theta, m, mprime)
    return ThetaTilde(DiffOp(theta.p, m, theta.d, lo.terms), lo.degree())


def central_level_for(
    theta: SymbolPoly, m: int, i: int, search_bound: int = 6
) -> int:
    """Least m' <= search_bound such that theta-tilde^(m,m') commutes with
    x_j and with D_j^<m><p^s> (s <= m) modulo p^(i+1)."""
    p, d = theta.p, theta.d
    gens = []
    for j in range(d):
        gens.append(DiffOp.x(p, m, j, d))
        for s in range(m + 1):
            gens.append(DiffOp.dx(p, m, p**s, j, d))
    for mprime in range(m, search_bound + 1):
        tt = build_theta_tilde(theta, m, mprime).op
        if all(tt.commutator(g).p_valuation() >= i + 1 for g in gens):
            return mprime
    raise SearchBoundExceeded(
        f"no central level found with m' <= {search_bound} (existence not refuted)"
    )


def render_diffop(P: DiffOp) -> str:
    def gen(j, kj):
        if P.m:
            return f"D{j + 1}[{P.m},{kj}]"
        return f"d{j + 1}" if kj == 1 else f"d{j + 1}^{kj}"

    if P.d == 1:
        return P.render(gen, lambda c: str(c).replace("x", "x1"))
    return P.render(gen)
