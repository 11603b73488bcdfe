"""The order filtration of D^(m): its principal symbol is multiplicative, and
the degree-zero quotient of its Rees ring is the graded ring of symbols."""

import random

from microdiff.diffop import DiffOp
from microdiff.polynomials import Poly


class TestPrincipalSymbol:
    def test_multiplicative_when_nonzero(self):
        rng = random.Random(1)
        for _ in range(20):
            P = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([rng.randint(-3, 3), 1])})
            Q = DiffOp(2, 0, 1, {(rng.randint(0, 4),): Poly.from_univariate([1, rng.randint(-3, 3)])})
            sP = P.symbol_exact()
            sQ = Q.symbol_exact()
            if (sP * sQ).is_zero():
                continue
            assert (P * Q).symbol_exact() == sP * sQ


class TestRees:
    def test_degree_zero_quotient_is_graded_ring(self):
        # in A_bullet/nu: classes of basis monomials multiply like symbols
        p, m = 2, 1
        for k1 in range(4):
            for k2 in range(4):
                a = DiffOp.dx(p, m, k1)
                b = DiffOp.dx(p, m, k2)
                assert (a * b).symbol_exact() == a.symbol_exact() * b.symbol_exact()
