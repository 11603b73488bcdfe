"""Exact arithmetic in Z and Q with p-adic valuations.

All structure constants of the divided-power calculus are exact rationals
(plain ``fractions.Fraction`` values); their p-integrality is read off
with ``valuation``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParameter

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
