"""Exact arithmetic in Z and Q with p-adic valuations.

All structure constants of the divided-power calculus are exact rationals
(plain ``fractions.Fraction`` values); their p-integrality is read off
with ``valuation``.  The closed-form valuation bounds of the level
comparison (``normcalc_bounds``) live here too: pure formulas, so the
``normcalc-bounds`` command needs no microlocal machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParameter, LevelMismatch

#: sentinel valuation of zero
INF = math.inf


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def check_prime_and_level(p: int, m: int) -> None:
    """Reject a non-prime p or a negative level m with InvalidParameter."""
    if not is_prime(p):
        raise InvalidParameter(f"p = {p} is not a prime")
    if m < 0:
        raise InvalidParameter(f"level m = {m} is negative")


def valuation(x, p: int):
    """p-adic valuation of an integer or Fraction; INF for zero."""
    if p < 2:
        raise InvalidParameter(f"p = {p} has no valuation (need p >= 2)")
    if x == 0:
        return INF
    if isinstance(x, Fraction):
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    x = int(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def factorial_valuation(p: int, n: int) -> int:
    """v_p(n!) by Legendre's formula."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = 0
    q = n // p
    while q:
        v += q
        q //= p
    return v


def q_part(k: int, p: int, m: int) -> int:
    """The quotient q in k = p^m q + r, 0 <= r < p^m."""
    return k // p**m


def divided_lift(k: int, p: int, m: int) -> Fraction:
    """Constant c with D^<m><k> = c * D^k, i.e. c = q! / k!."""
    return Fraction(math.factorial(q_part(k, p, m)), math.factorial(k))


def level_shift_constant(k: int, p: int, m: int, mprime: int) -> Fraction:
    """Constant c with D^<m><k> = c * D^<m'><k>.

    Equals q_m(k)! / q_m'(k)!; a p-integer whenever m <= m'.
    """
    return Fraction(
        math.factorial(q_part(k, p, m)), math.factorial(q_part(k, p, mprime))
    )


def level_factorial_ratio_exact(p: int, m: int, mprime: int) -> Fraction:
    """The constant r_{m,m'} = (p^m'!) * (p^m!)^(-p^j), j = m' - m.

    A p-adic integer of valuation (p^j - 1)/(p - 1).
    """
    if not 0 <= m <= mprime:
        raise ValueError("need 0 <= m <= m'")
    j = mprime - m
    return Fraction(math.factorial(p**mprime), math.factorial(p**m) ** (p**j))


def binomial_structure_constant_exact(p: int, m: int, k, kprime) -> Fraction:
    """Exact constant c with D^<m><k> D^<m><k'> = c * D^<m><k+k'>, per coordinate.

    k and kprime are equal-length multi-indices of nonnegative integers.
    """
    if len(k) != len(kprime):
        raise ValueError("multi-index length mismatch")
    c = Fraction(1)
    for kj, kpj in zip(k, kprime):
        if kj < 0 or kpj < 0:
            raise ValueError("multi-indices must be nonnegative")
        c *= Fraction(
            math.comb(kj + kpj, kj)
            * math.factorial(q_part(kj, p, m))
            * math.factorial(q_part(kpj, p, m)),
            math.factorial(q_part(kj + kpj, p, m)),
        )
    return c


# -- norm bounds -----------------------------------------------------------------


def alpha_bound(k: int, m: int, p: int, d: int = 1) -> int:
    """alpha_{k,m,1} = max(0, floor(d - k p^(-(m+1)) + 1))."""
    val = math.floor(Fraction(d) - Fraction(k, p ** (m + 1)) + 1)
    return max(0, val)


def normcalc_bounds(d: int, p: int, m: int, mprime: int, k: int) -> dict:
    """Closed-form denominator bounds for the (m, m') comparison at order k.

    a_k bounds the p-power needed to make terms of order >= k integral in the
    level-m' presentation; b_k the converse direction.  a_k = 0 once
    d*p^(m'+1) < k, and b_k = 0 for k < p^(m+1).  Orders k < 0 need no
    bound (``microloc.membership_intermediate`` treats them as automatic) and are
    rejected.
    """
    if not 0 <= m <= mprime:
        raise LevelMismatch(f"need 0 <= m <= m', got m = {m} and m' = {mprime}")
    if k < 0:
        raise InvalidParameter(f"need an order k >= 0, got {k}")
    alphas = {s: alpha_bound(k, s, p, d) for s in range(m, mprime)}
    if d * p ** (mprime + 1) < k:
        a_k = 0
    else:
        a_k = sum(alphas.values())
    b_k = sum(k // p**i for i in range(m + 1, mprime + 1))
    return {"a_k": a_k, "b_k": b_k, "alpha": alphas}
