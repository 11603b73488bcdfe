"""Characteristic varieties and microlocal supports for cyclic modules on the
formal affine line (d = 1).

Pipeline: an integral presentation of a cyclic module is completed into an
order-filtration standard basis (Buchberger-style S-pairs plus digit-overflow
pairs plus p-content division, all within explicit bounds that are part of
the certificate); the leading symbols are reduced onto the (x, Xi)-chart of
the level-m cotangent space, where Xi is the single non-nilpotent generator
xi^<m,p^m> of the mod-p symbol ring; the vanishing locus is classified into
the conical taxonomy for the line.  Support verdicts on the punctured chart
come from explicit inversion attempts in the microlocalized ring and are
cross-checked against the variety where both sides carry clean certificates.
"""

from fractions import Fraction

from .errors import (
    BoundsExhausted,
    InvalidParameter,
    LevelMismatch,
    NotInvertibleAtSymbol,
    SymbolMismatch,
    ZeroOperator,
)
from .padic import binomial_structure_constant_exact, check_prime_and_level
from .polynomials import Poly
from .pseudopoly import digit_decomposition, SymbolPoly
from .diffop import DiffOp, level_map_phi
from .record import FrozenRecord, Record


# -- domain types ----------------------------------------------------------------


class Bounds(FrozenRecord):
    """Exploration bounds for standard-basis completion; part of every
    certificate — nothing is claimed beyond them."""

    _fields = ("max_order", "max_xdeg", "precision", "max_steps")
    _defaults = {"max_order": 16, "max_xdeg": 24, "precision": 20, "max_steps": 400}

    def to_json(self):
        return {
            "max_order": self.max_order,
            "max_xdeg": self.max_xdeg,
            "precision": self.precision,
            "max_steps": self.max_steps,
        }


class CyclicModule:
    """M = D^(m)/(sum D.P_j), presented by p-integral operators.

    The p-torsion-free lattice is the image of the integral presentation
    after clearing denominators and p-content (the natural choice; the
    variety does not depend on it).
    """

    def __init__(self, p: int, m: int, relations):
        check_prime_and_level(p, m)
        self.p = p
        self.m = m
        rels = []
        for P in relations:
            if not isinstance(P, DiffOp):
                raise TypeError("relations must be DiffOps")
            if P.m != m or P.p != p:
                raise ValueError("relation level/prime mismatch")
            if P.is_zero():
                continue
            if P.d != 1:
                raise ValueError("only the affine line (d = 1) is supported")
            v = P.p_valuation()
            rels.append(P.scale(Fraction(1, 1) / Fraction(p) ** v))
        self.relations = tuple(rels)

    def level_raised(self, mprime: int) -> "CyclicModule":
        return CyclicModule(self.p, mprime, [level_map_phi(P, mprime) for P in self.relations])


class OrderStandardBasis(Record):
    # basis: DiffOps, integral, p-content 0; leading: [(order n, mod-p top
    # coefficient Poly)] per basis element; notes: a fresh list by default
    _fields = ("basis", "bounds", "complete", "pairs_checked", "leading", "notes")
    _defaults = {"notes": list}


class CharVariety(Record):
    """Conical closed subset of the level-m cotangent chart (x, Xi)."""

    # char_class: empty | whole-space | zero-section | zero-section-and-fibers
    #   | fiber-set | point-set | points-and-fibers
    # fibers: irreducible mod-p factors (strings) carrying a full fiber
    # points: factors carrying only the zero-section point above them
    # generators: reduced chart generators, as strings "f(x)*Xi^a"
    _fields = ("char_class", "zero_section", "fibers", "points", "generators",
               "complete", "bounds")

    def punctured_part(self):
        """Fiber factors visible off the zero section (xi != 0)."""
        if self.char_class == "whole-space":
            return None  # everything
        return sorted(self.fibers)

    def to_json(self):
        return {
            "char_class": self.char_class,
            "zero_section": self.zero_section,
            "fibers": self.fibers,
            "points": self.points,
            "generators": self.generators,
            "complete": self.complete,
            "bounds": self.bounds.to_json(),
        }


# -- mod-p leading data ------------------------------------------------------------


def _mod_p_leading(P: DiffOp):
    """(order n, top coefficient mod p) of the mod-p reduction of an
    integral, p-content-0 operator; None if P is zero."""
    best = None
    for k, c in P.terms.items():
        cbar = c.mod_p(P.p)
        if cbar.is_zero():
            continue
        if best is None or k[0] > best[0]:
            best = (k[0], cbar)
    return best


def _digits_compatible(a: int, b: int, p: int) -> bool:
    """True iff adding a + b in base p has no carries, i.e. the graded
    structure constant for xi_a * xi_b is a p-adic unit."""
    while a or b:
        if a % p + b % p >= p:
            return False
        a //= p
        b //= p
    return True


def _lc(f: Poly) -> Fraction:
    return f.coeffs[(f.degree(),)]


def _frac_mod(c: Fraction, p: int) -> int:
    """Image of a p-adic unit rational in F_p."""
    return c.numerator * pow(c.denominator, -1, p) % p


def _ecart(g: DiffOp, n: int, f: Poly):
    """How far the operator exceeds its own mod-p leading term (Mora)."""
    return (g.order() - n, g.max_xdeg() - f.degree())


def _shifted(g: DiffOp, ng: int, fg: Poly, n: int, deg: int):
    """x^s D^<m><a> g, whose mod-p leading term has order n and x-degree deg
    (a = n - ng, s = deg - deg fg), and the unit mod p of that leading
    term's coefficient, c(a, ng) * lc(fg)."""
    p, m = g.p, g.m
    a, s = n - ng, deg - fg.degree()
    mono = DiffOp.dx(p, m, a) if a else DiffOp.one(p, m)
    if s:
        mono = DiffOp.x(p, m, power=s) * mono
    c = binomial_structure_constant_exact(p, m, (a,), (ng,))
    return mono * g, _frac_mod(c * _lc(fg), p)


def _normal_form(P: DiffOp, basis, bounds: Bounds):
    """Mora-style reduction against the basis, clearing p-content as it
    appears; intermediate remainders join the reducer set so local-ordering
    reduction terminates instead of cycling.

    Returns the (integral, content-0) remainder, or raises BoundsExhausted
    when an intermediate operator leaves the bounded region.
    """
    p = P.p
    steps = 0
    divisions = 0  # cumulative p-content cleared; capped by the precision
    extra = []  # intermediate remainders, all in the (saturated) ideal
    seen = {}  # exact state -> divisions count when first seen
    while not P.is_zero():
        v = P.p_valuation()
        if v:
            divisions += v
            if divisions >= bounds.precision:
                # the remainder is p-adically below the certified precision
                return DiffOp.zero(p, P.m, P.d)
            P = P.scale(Fraction(1, 1) / Fraction(p) ** v)
        if P.order() > bounds.max_order or P.max_xdeg() > bounds.max_xdeg:
            raise BoundsExhausted(
                f"normal form left the bounded region "
                f"(order {P.order()}, x-degree {P.max_xdeg()})"
            )
        # a revisited state only makes progress if p-divisions accumulated in
        # between (the precision cap then bounds the total number of loops)
        key = frozenset((k, tuple(sorted(c.coeffs.items()))) for k, c in P.terms.items())
        if seen.get(key) == divisions:
            raise BoundsExhausted("reduction cycled without p-adic progress")
        seen[key] = divisions
        lead = _mod_p_leading(P)
        n, f = lead
        candidates = [
            (g, ng, fg, prio)
            for prio, pool in ((0, basis), (1, extra))
            for g, (ng, fg) in pool
            if ng <= n
            and fg.degree() <= f.degree()
            and _digits_compatible(n - ng, ng, p)
        ]
        if not candidates:
            return P
        g, ng, fg, _ = min(
            candidates, key=lambda c: (c[3], _ecart(c[0], c[1], c[2]))
        )
        # every intermediate may serve as a reducer later (Mora's trick);
        # p-content division can revisit a leading term, and the stored copy
        # then cancels it exactly instead of cycling
        extra.append((P, (n, f)))
        red, u = _shifted(g, ng, fg, n, f.degree())
        lam = _frac_mod(_lc(f), p) * pow(u, -1, p) % p
        # both mod-p lifts of the cancellation factor kill the leading term;
        # keep whichever leaves more p-content behind (exact zero preferred)
        P1 = P - red.scale(lam)
        P2 = P - red.scale(lam - p)
        P = P2 if P2.p_valuation() > P1.p_valuation() else P1
        steps += 1
        if steps > bounds.max_steps:
            raise BoundsExhausted("normal form exceeded the step budget")
    return P


def order_standard_basis(M: CyclicModule, bounds: Bounds = Bounds()) -> OrderStandardBasis:
    """Order-filtration standard basis of the relation ideal within bounds.

    S-pairs match leading terms in the mod-p graded ring (orders combine
    digit-wise, x-degrees via lcm); digit-overflow pairs multiply a basis
    element by (D^<m,p^i>)^(p-c_i) to force a carry, exposing the ideal
    elements that only appear after division by p.
    """
    p, m = M.p, M.m
    basis = []  # [(DiffOp, (n, f mod p))]
    notes = []

    def admit(P):
        lead = _mod_p_leading(P)
        basis.append((P, lead))

    for P in M.relations:
        admit(P)
    if not basis:
        return OrderStandardBasis([], bounds, True, 0, [], ["zero ideal"])

    complete = True
    checked = 0
    queue = []

    def queue_pairs_for(idx):
        g, (ng, fg) = basis[idx]
        digits = digit_decomposition(ng, p, m)
        for i, ci in enumerate(digits[:-1]):
            if ci:
                queue.append(("overflow", idx, i, p - ci))
        for jdx in range(len(basis)):
            if jdx != idx:
                queue.append(("spair", min(idx, jdx), max(idx, jdx)))

    for idx in range(len(basis)):
        queue_pairs_for(idx)

    seen = set()
    while queue:
        item = queue.pop(0)
        if item in seen:
            continue
        seen.add(item)
        checked += 1
        if checked > bounds.max_steps:
            complete = False
            notes.append("pair queue truncated by step budget")
            break
        try:
            if item[0] == "overflow":
                _, idx, i, e = item
                g, _ = basis[idx]
                S = (DiffOp.dx(p, m, p**i) ** e) * g
            else:
                _, idx, jdx = item
                g, (ng, fg) = basis[idx]
                h, (nh, fh) = basis[jdx]
                # lcm of leading monomials in the graded ring: digit-wise max
                # of the orders, max of the x-degrees
                n = 0
                q = 1
                a, b = ng, nh
                while a or b:
                    n += max(a % p, b % p) * q
                    a //= p
                    b //= p
                    q *= p
                if not (
                    _digits_compatible(n - ng, ng, p)
                    and _digits_compatible(n - nh, nh, p)
                ):
                    continue
                D = max(fg.degree(), fh.degree())
                Sg, ug = _shifted(g, ng, fg, n, D)
                Sh, uh = _shifted(h, nh, fh, n, D)
                S = Sg.scale(uh) - Sh.scale(ug)
            R = _normal_form(S, basis, bounds)
        except BoundsExhausted as exc:
            complete = False
            notes.append(str(exc))
            continue
        if not R.is_zero():
            admit(R)
            queue_pairs_for(len(basis) - 1)

    # independent re-verification: every original generator and every bounded
    # S-pair must reduce to zero against the returned basis
    if complete:
        try:
            for P in M.relations:
                if not _normal_form(P, basis, bounds).is_zero():
                    complete = False
                    notes.append("soundness re-check failed on a generator")
        except BoundsExhausted:
            complete = False
            notes.append("soundness re-check left the bounded region")

    return OrderStandardBasis(
        [g for g, _ in basis],
        bounds,
        complete,
        checked,
        [lead for _, lead in basis],
        notes,
    )


# -- chart reduction and classification ---------------------------------------------


def _reduced_chart_generators(sb: OrderStandardBasis, p: int, m: int):
    """Reduced images of the leading symbols on the (x, Xi)-chart.

    A leading symbol f(x).xi^<m,n> survives iff n is a multiple of p^m with
    zero low digits (the other basis vectors are nilpotent mod p); it lands
    on f(x).Xi^(n/p^m) up to a unit.
    """
    from .fpx import Fpx  # F_p[x] loads only where a variety is classified

    gens = []  # (a, Fpx)
    q = p**m
    for n, f in sb.leading:
        if n % q or any(digit_decomposition(n, p, m)[:-1]):
            continue  # nilpotent factor: cuts nothing
        fp = Fpx.from_poly(f, p)
        if not fp.is_zero():
            gens.append((n // q, fp))
    return gens


def _classify(gens, p: int) -> dict:
    """V of homogeneous generators f_j(x).Xi^(a_j) on the (x, Xi)-plane."""
    if not gens:
        return dict(char_class="whole-space", zero_section=True, fibers=[], points=[])
    base = [f for a, f in gens if a == 0]  # cut the whole fiber above V(f)
    cone = [f for a, f in gens if a > 0]  # cut {f = 0} union {Xi = 0}

    def gcd_all(fs):
        g = fs[0]
        for f in fs[1:]:
            g = g.gcd(f)
        return g

    if not base:
        fibers = [str(q) for q, _ in gcd_all(cone).factor_list()]
        cls = "zero-section" if not fibers else "zero-section-and-fibers"
        return dict(char_class=cls, zero_section=True, fibers=sorted(fibers), points=[])

    g0 = gcd_all(base)
    if g0.degree() == 0:
        return dict(char_class="empty", zero_section=False, fibers=[], points=[])
    fibers, points = [], []
    for q, _ in g0.factor_list():
        if all(f.rem(q).is_zero() for f in cone):
            fibers.append(str(q))
        else:
            points.append(str(q))
    if fibers and points:
        cls = "points-and-fibers"
    elif fibers:
        cls = "fiber-set"
    else:
        cls = "point-set"
    return dict(
        char_class=cls, zero_section=False, fibers=sorted(fibers), points=sorted(points)
    )


def char_variety(M: CyclicModule, bounds: Bounds = Bounds()) -> CharVariety:
    """Characteristic variety of M at its own level, within bounds."""
    sb = order_standard_basis(M, bounds)
    gens = _reduced_chart_generators(sb, M.p, M.m)
    info = _classify(gens, M.p)
    gen_strs = [str(f) + (f"*Xi^{a}" if a else "") for a, f in gens]
    return CharVariety(
        info["char_class"],
        info["zero_section"],
        info["fibers"],
        info["points"],
        gen_strs,
        sb.complete,
        bounds,
    )


# -- microlocal support ----------------------------------------------------------


class SupportVerdict(Record):
    # chart_class: "generic" or "fiber[<factor>]"; verdict: "Vanishes" |
    # "PersistsUpToWindow"; betas: (order, beta) pairs by descending order
    _fields = ("level", "chart_class", "verdict", "note", "betas")
    _defaults = {"note": "", "betas": ()}


def _degenerate_fiber_factors(P: DiffOp):
    """Irreducible mod-p factors of the top coefficient: the x-fibers where
    the leading symbol degenerates and the generic inversion says nothing."""
    from .fpx import Fpx

    lead = _mod_p_leading(P)
    if lead is None:
        return []
    _, f = lead
    return [str(q) for q, _ in Fpx.from_poly(f, P.p).factor_list()]


def micro_support_test(
    M: CyclicModule,
    levels,
    window: int = -12,
    char: CharVariety = None,
) -> dict:
    """Per-level support verdicts on the punctured chart (Theta = xi).

    A clean two-sided inverse of a relation certifies vanishing off the zero
    section; otherwise the bounded-window expansion is reported as
    diagnostic evidence only.  When a certified char_variety is supplied the
    punctured parts are cross-checked.
    """
    from .microloc import try_invert  # char and stability never load microloc

    p = M.p
    out = {"levels": {}, "crosscheck": None}
    for level in levels:
        verdicts = []
        fiber_factors = set()
        for P in M.relations:
            Pl = level_map_phi(P, level) if level > M.m else P
            xi = SymbolPoly.xi(p, 0, 1)
            try:
                rep = try_invert(Pl, xi, level, floor=window, laurent=True)
                if rep.ok:
                    verdicts.append(
                        SupportVerdict(
                            level, "generic", "Vanishes",
                            "two-sided inverse with residual certificate",
                            rep.profile.pairs(),
                        )
                    )
                else:
                    verdicts.append(
                        SupportVerdict(
                            level, "generic", "PersistsUpToWindow",
                            rep.note, rep.profile.pairs(),
                        )
                    )
            except (SymbolMismatch, NotInvertibleAtSymbol, ZeroOperator) as exc:
                verdicts.append(
                    SupportVerdict(level, "generic", "PersistsUpToWindow", str(exc))
                )
            fiber_factors.update(_degenerate_fiber_factors(Pl))
        for fac in sorted(fiber_factors):
            verdicts.append(
                SupportVerdict(
                    level,
                    f"fiber[{fac}]",
                    "PersistsUpToWindow",
                    "leading symbol degenerates on this fiber",
                )
            )
        out["levels"][level] = verdicts
    if char is not None and char.complete:
        lvl = min(out["levels"])
        vs = out["levels"][lvl]
        generic_ok = all(
            v.verdict == "Vanishes" for v in vs if v.chart_class == "generic"
        )
        if generic_ok:
            supp_fibers = sorted(
                v.chart_class[len("fiber["):-1]
                for v in vs
                if v.chart_class.startswith("fiber[")
            )
            agree = supp_fibers == (char.punctured_part() or [])
            out["crosscheck"] = {
                "level": lvl,
                "agree": agree,
                "support_fibers": supp_fibers,
                "char_fibers": char.punctured_part(),
            }
        else:
            out["crosscheck"] = {"level": lvl, "agree": None, "note": "inconclusive: no clean inverse"}
    return out


# -- the counterexample suite -------------------------------------------------------


def verify_counterexample(p: int, n_max: int = 30) -> dict:
    """Exact verification of the non-stability mechanism.

    (a) the recurrence f_{n+1} = n.f_{n-1} - x.f_n with f_1 = -(1 + x.f_0)
        has the closed form (-1)^n f_n = (x^(n-1)+g_n) + (x^n+h_n).f_0 with
        deg g_n < n-1 and deg h_n < n, for all n <= n_max;
    (b) the spectral-norm identity |f_n| = max(1, |f_0|) for the ten f_0 in
        0, 1, p, 1/p, and x^e, x^e/p^e for e = 1..3;
    (c) D^n.e = (x^n + lower).e modulo the left ideal (D - x).

    n_max must be at least 3: check (c) compares D^3.e with (x^3 + 3x).e.
    """
    if n_max < 3:
        raise InvalidParameter(f"need n_max >= 3 for the partial-cubed check, got {n_max}")
    x = Poly.var()
    checks = []

    # (a) closed form with an indeterminate f_0 slot: f_n = A_n + B_n f_0
    A = [Poly.zero(1), Poly.const(-1)]
    B = [Poly.const(1), x.scale(-1)]
    closed_ok = True
    for n in range(1, n_max):
        A.append(A[n - 1].scale(n) - x * A[n])
        B.append(B[n - 1].scale(n) - x * B[n])
    for n in range(1, n_max + 1):
        sgn = Fraction((-1) ** n)
        ga = A[n].scale(sgn) - Poly.var(power=n - 1)
        gb = B[n].scale(sgn) - Poly.var(power=n)
        if not (ga.degree() < n - 1 or ga.is_zero()) or not (
            gb.degree() < n or gb.is_zero()
        ):
            closed_ok = False
            checks.append({"check": "closed-form", "n": n, "ok": False})
            break
    checks.append({"check": "closed-form", "n_max": n_max, "ok": closed_ok})

    # (b) norm identity over a deterministic test set
    test_set = [Poly.zero(1), Poly.const(1), Poly.const(p), Poly.const(Fraction(1, p))]
    for e in range(1, 4):
        test_set.append(Poly.var(power=e))
        test_set.append(Poly.var(power=e).scale(Fraction(1, p**e)))
    norm_ok = True
    for f0 in test_set:
        v0 = min(0, f0.p_valuation(p)) if not f0.is_zero() else 0
        fprev, fcur = f0, Poly.const(-1) - x * f0
        for n in range(1, n_max + 1):
            if fcur.p_valuation(p) != v0:
                norm_ok = False
            fprev, fcur = fcur, fprev.scale(n) - x * fcur
    checks.append(
        {"check": "norm-identity", "cases": len(test_set), "n_max": n_max, "ok": norm_ok}
    )

    # (c) D^n.e = (x^n + lower).e via P_{n+1} = x.P_n + P_n'
    P = Poly.const(1)
    lead_ok = True
    pn3 = None
    for n in range(1, n_max + 1):
        P = x * P + P.derivative()
        if P.degree() != n or _lc(P) != 1:
            lead_ok = False
        if n == 3:
            pn3 = P
    checks.append({"check": "partial-power-leading", "n_max": n_max, "ok": lead_ok})
    p3_ok = pn3 == Poly.from_univariate([0, 3, 0, 1])
    checks.append({"check": "partial-cubed", "expected": "x^3 + 3x", "ok": p3_ok})

    return {
        "p": p,
        "n_max": n_max,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


# -- stability probe --------------------------------------------------------------


def stability_probe(M: CyclicModule, mprime_max: int, bounds: Bounds = Bounds()) -> dict:
    """Char^(m') for each level m' = m..mprime_max, with the least level from
    which the Char column stops changing within bounds (empirical N), and the
    levels whose certificate is incomplete.  Per-level support verdicts come
    from ``micro_support_test``."""
    if mprime_max < M.m:
        raise LevelMismatch(
            f"need mprime_max >= the module level {M.m}, got {mprime_max}"
        )
    rows = []
    classes = []
    for mp in range(M.m, mprime_max + 1):
        Ml = M.level_raised(mp) if mp > M.m else M
        cv = char_variety(Ml, bounds)
        key = (cv.char_class, tuple(cv.fibers), tuple(cv.points), cv.zero_section)
        classes.append((key, cv.complete))
        rows.append({"level": mp, "char": cv.to_json()})
    stable_from = None
    for i in range(len(classes)):
        tail = classes[i:]
        if all(c[1] for c in tail) and len({c[0] for c in tail}) == 1:
            stable_from = M.m + i
            break
    return {
        "rows": rows,
        "stable_from": stable_from,
        "flags": [r["level"] for r in rows if not r["char"]["complete"]],
    }
