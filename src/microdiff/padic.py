"""Exact arithmetic in Z, Q and truncated Q_p with explicit precision.

All structure constants of the divided-power calculus are computed as
exact rationals first and only then certified / reduced p-adically.
Exact rationals are plain ``fractions.Fraction`` values (always reduced,
positive denominator), so no separate wrapper type is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IntegralityViolation, InvalidParameter

#: alias used throughout: the carrier for exact structure constants
ExactRational = Fraction

#: sentinel valuation of zero
INF = math.inf

DEFAULT_PRECISION = 20


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


@dataclass(frozen=True)
class PadicScalar:
    """An element p^e * u of Q_p known modulo p^(e+N).

    ``u`` is a unit reduced mod p^N (coprime to p) and ``N >= 1`` is the
    relative precision.  Zero is the distinguished value with ``e = INF``;
    for zero, ``N`` is the absolute precision, so it reads O(p^N) and may
    be any integer.
    """

    p: int
    e: object  # int, or INF for zero
    u: int
    N: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not self.is_zero() and self.N < 1:
            raise ValueError("precision must be positive")
        if not self.is_zero() and math.gcd(self.u, self.p) != 1:
            raise ValueError("unit part not coprime to p")

    @classmethod
    def zero(cls, p: int, N: int = DEFAULT_PRECISION) -> "PadicScalar":
        return cls(p, INF, 0, N)

    @classmethod
    def from_rational(cls, x, p: int, N: int = DEFAULT_PRECISION) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, N)
        e = valuation(x, p)
        unit = x / Fraction(p) ** e
        num, den = unit.numerator, unit.denominator
        mod = p**N
        u = num * pow(den, -1, mod) % mod
        return cls(p, e, u, N)

    def is_zero(self) -> bool:
        return self.e is INF or self.e == INF

    @property
    def ordp(self):
        """p-adic valuation, normalized so that ord_p(p) = 1."""
        return self.e

    def _check(self, other: "PadicScalar"):
        if self.p != other.p:
            raise ValueError("prime mismatch")

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        N = min(self.N, other.N)
        if self.is_zero() or other.is_zero():
            return PadicScalar.zero(self.p, N)
        mod = self.p**N
        return PadicScalar(self.p, self.e + other.e, self.u * other.u % mod, N)

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # align at the smaller exponent; absolute precision is the min
        e = min(self.e, other.e)
        abs_prec = min(self.e + self.N, other.e + other.N)
        N = abs_prec - e
        if N <= 0:
            # sum indistinguishable from zero at the known precision
            return PadicScalar.zero(self.p, abs_prec)
        mod = self.p**N
        total = (
            self.u * self.p ** (self.e - e) + other.u * self.p ** (other.e - e)
        ) % mod
        if total == 0:
            return PadicScalar.zero(self.p, abs_prec)
        v = valuation(total, self.p)
        return PadicScalar(self.p, e + v, (total // self.p**v) % self.p ** (N - v), N - v)

    def __neg__(self) -> "PadicScalar":
        if self.is_zero():
            return self
        mod = self.p**self.N
        return PadicScalar(self.p, self.e, (-self.u) % mod, self.N)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def truncate(self, N: int) -> "PadicScalar":
        """Forget precision down to N digits."""
        if self.is_zero():
            return PadicScalar.zero(self.p, N)
        N = min(N, self.N)
        return PadicScalar(self.p, self.e, self.u % self.p**N, N)

    def congruent_to(self, x) -> bool:
        """Does the exact rational x reduce to this value at this precision?"""
        x = Fraction(x)
        if self.is_zero():
            return x == 0 or valuation(x, self.p) >= self.N
        other = PadicScalar.from_rational(x, self.p, self.N)
        return other.e == self.e and (other.u - self.u) % self.p**self.N == 0

    def __str__(self):
        if self.is_zero():
            return f"O({self.p}^{self.N})"
        return f"{self.u}*{self.p}^{self.e} + O({self.p}^{self.e + self.N})"


def level_factorial_ratio(p: int, m: int, mprime: int, N: int = DEFAULT_PRECISION) -> PadicScalar:
    """The constant r_{m,m'} = (p^m'!) * (p^m!)^(-p^j), j = m' - m.

    A p-adic integer of valuation (p^j - 1)/(p - 1).
    """
    r = level_factorial_ratio_exact(p, m, mprime)
    out = PadicScalar.from_rational(r, p, N)
    if out.e < 0:
        raise IntegralityViolation("r_{m,m'} must be a p-adic integer")
    return out


def level_factorial_ratio_exact(p: int, m: int, mprime: int) -> Fraction:
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


def padic_binomial_constant(p: int, m: int, k, kprime, N: int = DEFAULT_PRECISION) -> PadicScalar:
    """The structure constant of the <m>-divided-power basis, certified p-integral."""
    c = binomial_structure_constant_exact(p, m, k, kprime)
    if valuation(c, p) < 0:
        raise IntegralityViolation(
            f"structure constant {c} is not p-integral (p={p}, m={m}, k={k}, k'={kprime})"
        )
    return PadicScalar.from_rational(c, p, N)


def reduce_mod_precision(x, p: int, N: int) -> PadicScalar:
    """Canonical truncation of an exact rational to a PadicScalar of precision N."""
    return PadicScalar.from_rational(Fraction(x), p, N)
