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

from collections import deque
from fractions import Fraction

from .errors import BoundsExhausted, InvalidParameter, LevelMismatch, SymbolMismatch
from .padic import binomial_structure_constant_exact, check_prime_and_level, residue
from .polynomials import Poly
from .pseudopoly import SymbolPoly, check_window, digit_decomposition, leading_divides, leading_lcm
from .diffop import DiffOp, level_map_phi
from .record import FrozenRecord, Record


# -- domain types ----------------------------------------------------------------


class Bounds(FrozenRecord):
    """Exploration bounds for standard-basis completion; part of every
    certificate — nothing is claimed beyond them."""

    _fields = ("max_order", "max_xdeg", "precision", "max_steps")
    _defaults = {"max_order": 16, "max_xdeg": 24, "precision": 20, "max_steps": 400}
    # a smaller value certifies nothing: precision 0 drops every remainder
    _least = {"max_order": 0, "max_xdeg": 0, "precision": 1, "max_steps": 1}

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        for name, least in self._least.items():
            if self.__dict__[name] < least:
                raise InvalidParameter(f"bound {name} {self.__dict__[name]} below {least}")


class CyclicModule:
    """M = D^(m)/(sum D.P_j), presented by p-integral operators.

    The p-torsion-free lattice is the image of the integral presentation
    after clearing denominators and p-content (the natural choice; the
    variety does not depend on it).  A relation that is not a DiffOp, or
    not on the line, raises InvalidParameter; one at another level or prime
    raises LevelMismatch.
    """

    def __init__(self, p: int, m: int, relations):
        check_prime_and_level(p, m)
        self.p = p
        self.m = m
        rels = []
        for P in relations:
            if not isinstance(P, DiffOp):
                raise InvalidParameter("relations must be DiffOps")
            if P.m != m or P.p != p:
                raise LevelMismatch("relation level/prime mismatch")
            if P.is_zero():
                continue
            if P.d != 1:
                raise InvalidParameter("only the affine line (d = 1) is supported")
            v = P.p_valuation()
            rels.append(P.scale(Fraction(1, 1) / Fraction(p) ** v))
        self.relations = tuple(rels)

    def level_raised(self, mprime: int) -> "CyclicModule":
        """M at level m' >= m: its relations through phi, content cleared;
        M itself at m' = m."""
        if mprime < self.m:
            raise LevelMismatch(f"cannot lower the module level {self.m} to {mprime}")
        if mprime == self.m:
            return self
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


# -- standard-basis elements -------------------------------------------------------


def _lc(f: Poly) -> Fraction:
    return f.coeffs[(f.degree(),)]


def _element(g: DiffOp):
    """(g, n, f, deg f, ecart) of an integral, p-content-0 operator g: the
    order n and top coefficient f of its mod-p reduction, which is nonzero,
    read once.  The ecart measures how far g exceeds that leading term (Mora)."""
    red = g.mod_p()
    n = red.order()
    f = red.terms[(n,)]
    deg = f.degree()
    return g, n, f, deg, (g.order() - n, g.max_xdeg() - deg)


def _shifted(el, n: int, deg: int):
    """x^s D^<m><a> g of the element el of g, whose mod-p leading term has
    order n and x-degree deg (a = n - ng, s = deg - deg fg), and the unit mod
    p of that leading term's coefficient, c(a, ng) * lc(fg)."""
    g, ng, fg, deg_fg, _ = el
    p, m = g.p, g.m
    a = n - ng
    c = binomial_structure_constant_exact(p, m, (a,), (ng,))
    return DiffOp(p, m, 1, {(a,): Poly.var(power=deg - deg_fg)}) * g, residue(c * _lc(fg), p)


def _normal_form(P: DiffOp, basis, bounds: Bounds):
    """Mora-style reduction against the basis elements, clearing p-content as
    it appears.  Between two p-divisions the mod-p leading data (n, deg)
    strictly fall, since each step cancels the mod-p leading term and adds
    nothing above it.  So an operator P met again comes back after k >= 1
    divisions: P - h = p^k P with h in the ideal, and P = h / (1 - p^k) lies
    in the ideal, 1 - p^k being a unit of Z_(p).  A revisit returns zero.

    A step subtracts lam.x^s D^<m><a> g, lam the lift in [0, p) of lc(f)/u
    mod p.  Any lift cancels the same mod-p leading term, and two lifts differ
    by a multiple of x^s D^<m><a> g, in the ideal; so any one lift is sound.

    Returns the (integral, content-0) remainder, or raises BoundsExhausted
    when an intermediate operator leaves the bounded region.
    """
    p = P.p
    steps = 0
    divisions = 0  # cumulative p-content cleared; capped by the precision
    seen = set()
    while not P.is_zero():
        v = P.p_valuation()
        if v:
            divisions += v
            P = P.scale(Fraction(1, 1) / Fraction(p) ** v)
        # past the precision the remainder is p-adically below what is certified
        if P in seen or divisions >= bounds.precision:
            return DiffOp.zero(p, P.m, P.d)
        seen.add(P)
        if P.order() > bounds.max_order or P.max_xdeg() > bounds.max_xdeg:
            raise BoundsExhausted(
                f"normal form left the bounded region "
                f"(order {P.order()}, x-degree {P.max_xdeg()})"
            )
        _, n, f, deg, _ = _element(P)
        fits = [el for el in basis if el[3] <= deg and leading_divides(el[1], n, p, P.m)]
        if not fits:
            return P
        pick = min(fits, key=lambda el: el[4])  # least ecart, the first among equals
        red, u = _shifted(pick, n, deg)
        P = P - red.scale(residue(_lc(f) / u, p))
        steps += 1
        if steps > bounds.max_steps:
            raise BoundsExhausted("normal form exceeded the step budget")
    return P


def order_standard_basis(M: CyclicModule, bounds: Bounds = Bounds()) -> OrderStandardBasis:
    """Order-filtration standard basis of the relation ideal within bounds.

    S-pairs match leading terms in the mod-p graded ring (orders through
    ``leading_lcm``, x-degrees through their max); digit-overflow pairs
    multiply a basis element by (D^<m,p^i>)^(p-c_i) to force a carry,
    exposing the ideal elements that only appear after division by p.
    """
    p, m = M.p, M.m
    basis = [_element(P) for P in M.relations]  # relations first, then remainders
    if not basis:
        return OrderStandardBasis([], bounds, True, 0, [], ["zero ideal"])

    complete = True
    checked = 0
    notes = []
    queue = deque()

    def queue_pairs(idx, partners):
        """The overflow pairs of element idx, then its S-pairs with partners."""
        digits = digit_decomposition(basis[idx][1], p, m)[:-1]
        queue.extend(("overflow", idx, i, p - ci) for i, ci in enumerate(digits) if ci)
        queue.extend(("spair", min(idx, jdx), max(idx, jdx)) for jdx in partners)

    # each pair is queued once: a relation with the later relations, an
    # admitted remainder with every element before it
    for idx in range(len(basis)):
        queue_pairs(idx, range(idx + 1, len(basis)))

    while queue:
        if checked == bounds.max_steps:
            complete = False
            notes.append("pair queue truncated by step budget")
            break
        item = queue.popleft()
        checked += 1
        try:
            if item[0] == "overflow":
                _, idx, i, e = item
                S = (DiffOp.dx(p, m, p**i) ** e) * basis[idx][0]
            else:
                g, h = basis[item[1]], basis[item[2]]
                n, D = leading_lcm(g[1], h[1], p, m), max(g[3], h[3])
                Sg, ug = _shifted(g, n, D)
                Sh, uh = _shifted(h, n, D)
                S = Sg.scale(uh) - Sh.scale(ug)
            R = _normal_form(S, basis, bounds)
        except BoundsExhausted as exc:
            complete = False
            notes.append(str(exc))
            continue
        if not R.is_zero():
            basis.append(_element(R))
            queue_pairs(len(basis) - 1, range(len(basis) - 1))

    # independent re-verification: every original generator must reduce to
    # zero against the returned basis (the S-pairs are not re-checked)
    if complete:
        try:
            for P in M.relations:
                if not _normal_form(P, basis, bounds).is_zero():
                    complete = False
                    notes.append("soundness re-check failed on a generator")
        except BoundsExhausted:
            complete = False
            notes.append("soundness re-check left the bounded region")

    return OrderStandardBasis([el[0] for el in basis], bounds, complete, checked,
                              [(n, f) for _, n, f, _, _ in basis], notes)


# -- chart reduction and classification ---------------------------------------------


def _reduced_chart_generators(sb: OrderStandardBasis, p: int, m: int):
    """Reduced images of the leading symbols on the (x, Xi)-chart.

    A leading symbol f(x).xi^<m,n> survives iff n is a multiple of p^m, that
    is iff its m low base-p digits are zero (the other basis vectors are
    nilpotent mod p); it lands on f(x).Xi^(n/p^m) up to a unit.
    """
    from .fpx import Fpx  # F_p[x] loads only where a variety is classified

    gens = []  # (a, Fpx)
    q = p**m
    for n, f in sb.leading:
        if n % q:
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
    return CharVariety(
        **_classify(gens, M.p),
        generators=[str(f) + (f"*Xi^{a}" if a else "") for a, f in gens],
        complete=sb.complete,
        bounds=bounds,
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

    _, _, f, _, _ = _element(P)
    return [str(q) for q, _ in Fpx.from_poly(f, P.p).factor_list()]


def micro_support_test(
    M: CyclicModule,
    levels,
    window: int = -12,
    char: CharVariety = None,
) -> dict:
    """Per-level support verdicts on the punctured chart (Theta = xi) of
    M.level_raised(L), for each L in levels (L >= M's level m).

    A clean two-sided inverse of a relation certifies vanishing off the zero
    section; otherwise the bounded-window expansion is reported as
    diagnostic evidence only.  When the certified char_variety of M is
    supplied, the punctured parts at level m are cross-checked with it; the
    check asserts agreement only if some relation was inverted and every
    generic verdict there vanishes.

    The window is a finite integer >= MIN_WINDOW_FLOOR (-32), as for
    ``try_invert``; any other is refused with InvalidParameter, whether or
    not M has relations to invert.
    """
    from .microloc import try_invert  # char and stability never load microloc

    check_window(window)
    xi = SymbolPoly.xi(M.p, 0, 1)
    out = {"levels": {}, "crosscheck": None}
    own = None  # at level m: (every generic verdict of some relation vanishes, fibers)
    for level in levels:
        generic = []
        fiber_factors = set()
        for P in M.level_raised(level).relations:
            try:
                rep = try_invert(P, xi, level, floor=window, laurent=True)
                betas = rep.profile.pairs()
                if rep.ok:
                    verdict, note = "Vanishes", "two-sided inverse with residual certificate"
                else:
                    verdict, note = "PersistsUpToWindow", rep.note
            except SymbolMismatch as exc:
                verdict, note, betas = "PersistsUpToWindow", str(exc), ()
            generic.append(SupportVerdict(level, "generic", verdict, note, betas))
            fiber_factors.update(_degenerate_fiber_factors(P))
        fibers = sorted(fiber_factors)
        out["levels"][level] = generic + [
            SupportVerdict(
                level, f"fiber[{fac}]", "PersistsUpToWindow",
                "leading symbol degenerates on this fiber",
            )
            for fac in fibers
        ]
        if level == M.m:
            own = (bool(generic) and all(v.verdict == "Vanishes" for v in generic), fibers)
    if char is not None and char.complete:
        lvl = M.m
        if own is None:
            out["crosscheck"] = {
                "level": lvl, "agree": None,
                "note": f"not crosschecked: no support verdicts at level {lvl}, the level of Char",
            }
        elif own[0]:
            out["crosscheck"] = {
                "level": lvl,
                "agree": own[1] == char.punctured_part(),
                "support_fibers": own[1],
                "char_fibers": char.punctured_part(),
            }
        else:
            why = "no clean inverse" if M.relations else "no relation to invert"
            out["crosscheck"] = {"level": lvl, "agree": None, "note": f"inconclusive: {why}"}
    return out


# -- the counterexample suite -------------------------------------------------------

# No n_max above this: n_max = 100 takes about 0.36 s of CPU on one Xeon core,
# and each doubling costs about 4 times more (0.09 s at n_max = 50).
MAX_NMAX = 100


def verify_counterexample(p: int, n_max: int = 30) -> dict:
    """Exact verification of the non-stability mechanism.

    (a) the recurrence f_{n+1} = n.f_{n-1} - x.f_n with f_1 = -(1 + x.f_0)
        has the closed form (-1)^n f_n = (x^(n-1)+g_n) + (x^n+h_n).f_0 with
        deg g_n < n-1 and deg h_n < n, for all n <= n_max;
    (b) the spectral-norm identity |f_n| = max(1, |f_0|) for the ten f_0 in
        0, 1, p, 1/p, and x^e, x^e/p^e for e = 1..3;
    (c) D^n.e = (x^n + lower).e modulo the left ideal (D - x).

    3 <= n_max <= MAX_NMAX: check (c) compares D^3.e with (x^3 + 3x).e.
    """
    if n_max < 3:
        raise InvalidParameter(f"need n_max >= 3 for the partial-cubed check, got {n_max}")
    if n_max > MAX_NMAX:
        raise InvalidParameter(f"n_max {n_max} exceeds the cap of {MAX_NMAX}")
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
        if ga.degree() >= n - 1 or gb.degree() >= n:  # the zero Poly has degree -inf
            closed_ok = False
            checks.append({"check": "closed-form", "n": n, "ok": False})
            break
    checks.append({"check": "closed-form", "n_max": n_max, "ok": closed_ok})

    # (b) norm identity over a deterministic test set, f_n read off (a)
    test_set = [Poly.zero(1), Poly.const(1), Poly.const(p), Poly.const(Fraction(1, p))]
    for e in range(1, 4):
        test_set.append(Poly.var(power=e))
        test_set.append(Poly.var(power=e).scale(Fraction(1, p**e)))
    # |f_n| = max(1, |f_0|) reads v(f_n) = min(0, v(f_0)), with v(0) = INF
    norm_ok = all(
        (A[n] + B[n] * f0).p_valuation(p) == min(0, f0.p_valuation(p))
        for f0 in test_set for n in range(1, n_max + 1)
    )
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


# No mprime_max above this: one Char per level.  On one Xeon core `stability
# --p 2 --rel "d1 - x1"` took 0.20 s of CPU at 16, and `--p 3 --rel
# "x1^2*d1^2 - x1"` 0.5 s at 4 and 1.5 s at 16; but a costlier module takes
# seconds a level: `--p 5` on the same relation took 34 s at 8.
MAX_STABILITY_MPRIME = 16


def stability_probe(M: CyclicModule, mprime_max: int, bounds: Bounds = Bounds()) -> dict:
    """Char^(m') for each level m' = m..mprime_max, with the least level from
    which the Char column stops changing within bounds (empirical N), and the
    levels whose certificate is incomplete.  It computes Char only; support
    verdicts at a level come from ``micro_support_test``."""
    if mprime_max < M.m:
        raise LevelMismatch(
            f"need mprime_max >= the module level {M.m}, got {mprime_max}"
        )
    if mprime_max > MAX_STABILITY_MPRIME:
        raise InvalidParameter(f"mprime_max {mprime_max} above the cap of {MAX_STABILITY_MPRIME}")
    rows = []
    classes = []
    for mp in range(M.m, mprime_max + 1):
        cv = char_variety(M.level_raised(mp), bounds)
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
