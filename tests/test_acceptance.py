"""Acceptance gate: eleven primary criteria, one pass/fail line each.

Every test prints `PASS  criterion-N: <name>` on success; a failure shows up
as a normal pytest failure (and hence the line is absent).  All checks are
exact -- rationals and integers only, no floating point and no tolerances.
Each criterion carries its own wall-clock budget, asserted at the end.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from microdiff.charvar import (
    Bounds,
    CyclicModule,
    char_variety,
    micro_support_test,
    verify_counterexample,
)
from microdiff.cli import main as cli_main
from microdiff.diffop import DiffOp, build_theta_tilde, level_map_phi
from microdiff.microloc import (
    MicroOp,
    convert_presentation,
    invert_theta_tilde,
    membership_intermediate,
    micro_multiply,
    normcalc_bounds,
    observed_a_bound,
    psi_level_lower,
    try_invert,
)
from microdiff.padic import (
    binomial_structure_constant_exact,
    divided_lift,
    level_factorial_ratio_exact,
    q_part,
    valuation,
)
from microdiff.polynomials import Poly
from microdiff.pseudopoly import SymbolPoly, rational_level_change, theta_variants


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"PASS  criterion-{self.number}: {self.name} ({elapsed:.1f}s)")
        return False


def test_criterion_01_defining_relation():
    # k! * D^<m><k> = q! * D^k exactly, k <= 64, m <= 3, p in {2,3,5}
    with Budget(1, "defining relation of the divided basis", 10):
        for p in (2, 3, 5):
            for m in range(4):
                for k in range(65):
                    q = q_part(k, p, m)
                    # scalar form: D^<m><k> = (q!/k!) D^k
                    assert divided_lift(k, p, m) == Fraction(
                        math.factorial(q), math.factorial(k)
                    )
                    # operator form via the level-raising map
                    lhs = level_map_phi(DiffOp.dx(p, 0) ** k, m)
                    rhs = DiffOp.dx(p, m, k).scale(
                        Fraction(math.factorial(k), math.factorial(q))
                    )
                    assert lhs == rhs


def test_criterion_02_structure_constant_integrality():
    # v_p(c(k, k')) >= 0 exhaustively, |k|,|k'| <= 32, m <= 2, p in {2,3}
    with Budget(2, "structure-constant integrality", 30):
        for p in (2, 3):
            for m in range(3):
                for k in range(33):
                    for kp in range(33):
                        c = binomial_structure_constant_exact(p, m, (k,), (kp,))
                        assert valuation(c, p) >= 0, (p, m, k, kp, c)


def test_criterion_03_r_constant_law():
    # Theta^(m,m') = r_{m,m'}^n * Theta^(m') for 20 random homogeneous Theta
    with Budget(3, "r-constant law", 5):
        rng = random.Random(2026)
        for _ in range(20):
            p = rng.choice([2, 3])
            d = rng.choice([1, 2])
            n = rng.randint(1, 4)
            m = rng.randint(0, 2)
            mp = rng.randint(m, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                parts = [0] * d
                rem = n
                for j in range(d - 1):
                    parts[j] = rng.randint(0, rem)
                    rem -= parts[j]
                parts[-1] = rem
                xexp = tuple(rng.randint(0, 2) for _ in range(d))
                terms[tuple(parts)] = Poly(d, {xexp: rng.randint(1, 5)})
            theta = SymbolPoly(p, 0, d, terms)
            hi, lo = theta_variants(theta, m, mp)
            r = level_factorial_ratio_exact(p, m, mp)
            assert lo == rational_level_change(hi, m).scale(r**n)


def test_criterion_04_normcalc_thresholds():
    # (i)(a): a_k = 0 whenever d p^(m'+1) < k, and the certified bound covers
    # brute-forced presentations; (i)(b): b_k = 0 whenever k < p^(m+1), and
    # b_k is the exact valuation drop of the level shift.  d=1, p in {2,3},
    # m <= 1, m' <= 2, i <= 3.
    with Budget(4, "normcalc thresholds", 60):
        from microdiff.padic import level_shift_constant

        for p in (2, 3):
            for m in (0, 1):
                for mp in range(m, 3):
                    for k in range(0, 2 * p ** (mp + 1) + 2):
                        bounds = normcalc_bounds(1, p, m, mp, k)
                        if p ** (mp + 1) < k:
                            assert bounds["a_k"] == 0, (p, m, mp, k)
                        if k < p ** (m + 1):
                            assert bounds["b_k"] == 0, (p, m, mp, k)
                        assert bounds["b_k"] == -valuation(
                            level_shift_constant(k, p, mp, m), p
                        )
                    # brute-force: p^(a_k) D^<m><l> Tinv^i integral for l >= k
                    for k in range(0, 2 * p**mp + 1):
                        a_k = normcalc_bounds(1, p, m, mp, k)["a_k"]
                        assert observed_a_bound(p, m, mp, k, imax=3) <= a_k


def test_criterion_05_microlocal_inversion():
    # Ttilde * S = S * Ttilde = 1 in the window L=-20, for
    # Theta in {xi, x*xi (monomial-unit chart)}, all level pairs m <= m' <= 2
    with Budget(5, "microlocal inversion of the localizer", 10):
        for p in (2, 3):
            plain = SymbolPoly.xi(p, 0)
            chart = SymbolPoly(p, 0, 1, {(1,): Poly.var()})  # x * xi
            for theta, laurent in ((plain, False), (chart, True)):
                for m in range(3):
                    for mp in range(m, 3):
                        T = build_theta_tilde(theta, m, mp).op
                        rep = try_invert(
                            T, theta, mp, floor=-20, laurent=laurent
                        )
                        assert rep.ok, (p, str(theta), m, mp, rep.note)
                        assert rep.left_residual_below_floor
                        assert rep.right_residual_below_floor
                        S = invert_theta_tilde(
                            theta, m, mp, floor=-20, laurent=laurent
                        )
                        TT = MicroOp.from_diffop(
                            T, theta, mp, floor=-20, laurent=laurent
                        )
                        assert micro_multiply(TT, S) == 1
                        assert micro_multiply(S, TT) == 1


def test_criterion_06_presentation_conversion():
    # right d^-1 x = left x d^-1 - d^-2, certified by multiplying by d on the
    # left; then 50 randomized round trips that agree above the window floor
    with Budget(6, "presentation conversion", 10):
        xi = SymbolPoly.xi(2, 0)
        R = MicroOp(xi, 0, 0, {((0,), 1): Poly.var()}, side="right", floor=-10)
        L = convert_presentation(R, "left")
        assert L.terms == {((0,), 1): Poly.var(), ((0,), 2): Poly.const(-1)}
        D = MicroOp.from_diffop(DiffOp.dx(2, 0), xi, 0, floor=-10)
        X = MicroOp.from_diffop(DiffOp.x(2, 0), xi, 0, floor=-10)
        assert micro_multiply(D, L) == X

        rng = random.Random(606)
        for trial in range(50):
            p = rng.choice([2, 3])
            level = rng.randint(0, 2)
            mp = rng.randint(level, 2)
            theta = SymbolPoly.xi(p, 0)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                key = ((rng.randint(0, 5),), rng.randint(0, 2))
                terms[key] = Poly(1, {(rng.randint(0, 2),): rng.randint(-4, 4)})
            P = MicroOp(theta, level, mp, terms, floor=-8)
            if P.is_zero():
                continue
            back = convert_presentation(convert_presentation(P, "right"), "left")
            assert (back - P).truncate(-8).canonical().is_zero(), trial


def test_criterion_07_counterexample_suite():
    # closed form (-1)^n f_n = (x^(n-1)+g_n) + (x^n+h_n) f_0 with degree
    # bounds for n <= 30; Gauss-norm identity |f_n| = max{1, |f_0|} on a
    # 10-element f_0 set; D^n e = (x^n + lower) e for n <= 20
    with Budget(7, "recursion counterexample suite", 30):
        for p in (2, 3):
            report = verify_counterexample(p, n_max=30)
            assert report["all_ok"], report
            names = {c["check"] for c in report["checks"]}
            assert "closed-form" in names
            assert "norm-identity" in names
            assert "partial-power-leading" in names
            norm = next(c for c in report["checks"] if c["check"] == "norm-identity")
            assert norm["cases"] >= 10
            pw = next(
                c for c in report["checks"] if c["check"] == "partial-power-leading"
            )
            assert pw["n_max"] >= 20


def test_criterion_08_char_support_agreement():
    # level-0 battery: char_variety and micro_support_test agree on the
    # punctured chart with complete certificates
    with Budget(8, "characteristic variety vs microlocal support", 60):
        p = 2
        d = DiffOp.dx(p, 0)
        x = DiffOp.x(p, 0)
        battery = [
            ("d-x", [d - x]),
            ("d", [d]),
            ("xd", [x * d]),
            ("xd-1", [x * d - DiffOp.one(p, 0)]),
            ("xd-2", [x * d - DiffOp.scalar(2, p, 0)]),
            ("x", [x]),
            ("1", [DiffOp.one(p, 0)]),
        ]
        for name, rels in battery:
            M = CyclicModule(p, 0, rels)
            char = char_variety(M, Bounds())
            assert char.complete, name
            report = micro_support_test(M, levels=[0], window=-12, char=char)
            assert report["crosscheck"]["agree"] is True, (
                name,
                report["crosscheck"],
            )


def test_criterion_09_membership():
    # localizer inverses land in the intermediate ring; a genuinely level-1
    # divided power does not; the degree-<=0 shortcut holds on 20 random
    # integral operators of nonpositive order
    with Budget(9, "intermediate-ring membership", 10):
        xi2 = SymbolPoly.xi(2, 0)
        for mp in (1, 2):
            Q = MicroOp(xi2, 1, mp, {((0,), 1): 1})
            assert membership_intermediate(Q, 0).status == "InEmm'"
        P = MicroOp.from_diffop(DiffOp.dx(2, 1, 2), xi2, 1)
        assert membership_intermediate(P, 0).status == "OnlyInEm'"

        rng = random.Random(909)
        checked = 0
        while checked < 20:
            level = rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(1, 2)
                k = rng.randint(0, i * 2**level)  # order k - i*2^level <= 0
                terms[((k,), i)] = Poly(1, {(rng.randint(0, 2),): rng.randint(-4, 4)})
            P = MicroOp(xi2, level, level, terms)
            if P.is_zero() or P.order() > 0 or not P.is_integral():
                continue
            assert membership_intermediate(P, 0).status == "InEmm'"
            checked += 1


def test_criterion_10_psi_coherence():
    # psi functoriality, gr(psi) agreement on leading terms, and order
    # strictness on a 30-element battery
    with Budget(10, "psi coherence", 10):
        rng = random.Random(1010)
        battery = []
        while len(battery) < 30:
            p = rng.choice([2, 3])
            theta = SymbolPoly.xi(p, 0)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = ((rng.randint(0, 5),), rng.randint(0, 2))
                terms[key] = Poly(1, {(rng.randint(0, 2),): rng.randint(-4, 4)})
            P = MicroOp(theta, 2, 2, terms)
            if not P.is_zero():
                battery.append(P)
        for P in battery:
            via = psi_level_lower(psi_level_lower(P, 1), 0)
            direct = psi_level_lower(P, 0)
            assert via.terms == direct.terms  # functoriality
            assert direct.order() == P.order()  # strictness
            # gr(psi): the image of the top slice is the top slice of the image
            w = P.order()
            top = P.with_terms(P.order_part(w))
            assert psi_level_lower(top, 0).terms == direct.with_terms(
                direct.order_part(w)
            ).terms


def test_criterion_11_determinism_and_refinement(capsys):
    # every CLI command byte-identical across two runs; window refinement
    # reproduces truncations on a 20-case battery
    with Budget(11, "CLI determinism and window refinement", 30):
        commands = [
            ["mul", "--p", "2", "--expr", "(d1 - x1)^3", "--json"],
            ["symbol", "--p", "3", "--expr", "x1*d1^2 + 3*d1", "--json"],
            ["levelmap", "--p", "2", "--expr", "d1^2", "--mprime", "1", "--json"],
            ["psi", "--p", "2", "--expr", "Tinv(xi1,1,1)", "--m", "0",
             "--window-floor", "-8", "--json"],
            ["invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0",
             "--window-floor", "-8", "--json"],
            ["member", "--p", "2", "--P", "Tinv2(xi1,1,2)", "--m", "0",
             "--mprime", "1", "--json"],
            ["char", "--p", "2", "--level", "1", "--rel", "d1 - x1", "--json"],
            ["supp", "--p", "2", "--rel", "x1*d1 - 1", "--window-floor", "-8",
             "--json"],
            ["stability", "--p", "2", "--rel", "x1*d1 - 1", "--mprime-max", "1",
             "--window-floor", "-6", "--json"],
            ["verify-counterexample", "--p", "2", "--nmax", "8", "--json"],
            ["normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1",
             "--k", "4", "--json"],
        ]
        for argv in commands:
            code1 = cli_main(list(argv))
            out1 = capsys.readouterr().out
            code2 = cli_main(list(argv))
            out2 = capsys.readouterr().out
            assert code1 == code2 and out1 == out2, argv[0]
            json.loads(out1)  # valid JSON with the versioned schema
            assert '"microdiff-' in out1

        rng = random.Random(1111)
        cases = 0
        while cases < 20:
            p = rng.choice([2, 3])
            theta = SymbolPoly.xi(p, 0)
            P = DiffOp.dx(p, 0, rng.randint(1, 2)) + DiffOp.x(p, 0).scale(
                rng.randint(-3, 3)
            ) + DiffOp.scalar(rng.randint(-2, 2), p, 0)
            try:
                deep = try_invert(P, theta, 0, floor=-10).inverse
                shallow = try_invert(P, theta, 0, floor=-5).inverse
            except Exception:
                continue  # symbol not a unit monomial; not a refinement case
            assert deep.truncate(shallow.floor) == shallow
            cases += 1
