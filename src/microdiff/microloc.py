"""Truncated microdifferential operators: presentations in negative powers of
a theta-tilde localizer, their arithmetic, inversion, level-lowering maps,
and membership tests for the intermediate rings.

A left presentation is   sum b_{k,i}(x) D^<m><k> T^(-i)
and a right presentation  sum T^(-i) D^<m><k> b_{k,i}(x),
where T is the theta-tilde localizer at levels (m, m'): the left lift
sum c_K D^<m><K> of the symbol Theta^(m,m') = sum c_K xi^<m><K>.  Both
presentations invert this same T.  The order of the (k, i) term is
|k| - i*n*p^m'.  A value always represents a coset modulo terms of order
below the window floor L; equality and all certificates are coset
statements.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diffop import DiffOp, ThetaTilde, build_theta_tilde, render_diffop
from .errors import (
    IncompatibleLocalizer,
    LevelMismatch,
    NotInvertibleAtSymbol,
    SearchBoundExceeded,
    SymbolMismatch,
)
from .padic import (  # alpha_bound and normcalc_bounds are exported here too
    alpha_bound,
    binomial_structure_constant_exact,
    level_factorial_ratio_exact,
    level_shift_constant,
    normcalc_bounds,
)
from .polynomials import Poly
from .pseudopoly import SymbolPoly, check_theta
from .record import FrozenRecord

INF = math.inf


def term_order(k, i, n, p, mprime):
    return sum(k) - i * n * p**mprime


class MicroOp:
    """Microdifferential operator presented at level ``level`` with localizer
    theta-tilde at levels (level, mprime)."""

    __slots__ = (
        "p", "level", "mprime", "theta", "side", "d",
        "terms", "floor", "laurent",
    )

    def __init__(
        self,
        theta: SymbolPoly,
        level: int,
        mprime: int,
        terms=None,
        side: str = "left",
        floor=-INF,
        laurent: bool = False,
    ):
        check_theta(theta, level, mprime)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.p = theta.p
        self.level = level
        self.mprime = mprime
        self.theta = theta
        self.side = side
        self.d = theta.d
        self.floor = floor
        self.laurent = laurent
        n = theta.degree()
        clean = {}
        for (k, i), c in (terms or {}).items():
            k = tuple(int(e) for e in k)
            if i < 0:
                raise ValueError("negative localizer powers only (i >= 0)")
            if isinstance(c, (int, Fraction)):
                c = Poly.const(c, self.d)
            if c.is_zero():
                continue
            if term_order(k, i, n, self.p, mprime) < floor:
                continue
            key = (k, i)
            clean[key] = clean.get(key, Poly.zero(self.d)) + c
        self.terms = {key: c for key, c in clean.items() if not c.is_zero()}

    # -- basics -----------------------------------------------------------

    @property
    def n(self):
        return self.theta.degree()

    @property
    def localizer_order(self):
        return self.n * self.p**self.mprime

    def localizer(self) -> ThetaTilde:
        return build_theta_tilde(self.theta, self.level, self.mprime)

    def _meta(self):
        return (self.p, self.level, self.mprime, self.theta, self.side, self.d)

    def with_terms(self, terms, floor=None):
        return MicroOp(
            self.theta,
            self.level,
            self.mprime,
            terms,
            self.side,
            self.floor if floor is None else floor,
            self.laurent,
        )

    @classmethod
    def from_diffop(cls, P: DiffOp, theta: SymbolPoly, mprime: int, floor=-INF, laurent=False):
        if (P.p, P.d) != (theta.p, theta.d):
            raise IncompatibleLocalizer("operator and theta live on different spaces")
        return cls(
            theta,
            P.m,
            mprime,
            {(k, 0): c for k, c in P.terms.items()},
            "left",
            floor,
            laurent,
        )

    @classmethod
    def one(cls, theta, level, mprime, floor=-INF, laurent=False):
        return cls(theta, level, mprime, {((0,) * theta.d, 0): 1}, "left", floor, laurent)

    def is_zero(self):
        return not self.terms

    def order(self):
        if not self.terms:
            return -INF
        return max(term_order(k, i, self.n, self.p, self.mprime) for k, i in self.terms)

    def orders(self):
        return sorted(
            {term_order(k, i, self.n, self.p, self.mprime) for k, i in self.terms},
            reverse=True,
        )

    def order_part(self, N0):
        return {
            (k, i): c
            for (k, i), c in self.terms.items()
            if term_order(k, i, self.n, self.p, self.mprime) == N0
        }

    def p_valuation(self):
        if not self.terms:
            return INF
        return min(c.p_valuation(self.p) for c in self.terms.values())

    def is_integral(self):
        return self.is_zero() or self.p_valuation() >= 0

    def truncate(self, floor) -> "MicroOp":
        return self.with_terms(self.terms, floor=max(floor, self.floor))

    # -- additive structure -------------------------------------------------

    def _check(self, other: "MicroOp"):
        if self._meta() != other._meta():
            raise IncompatibleLocalizer(f"{self._meta()} vs {other._meta()}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.with_terms({((0,) * self.d, 0): other}, floor=-INF)
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Poly.zero(self.d)) + c
        return self.with_terms(out, floor=max(self.floor, other.floor))

    def __neg__(self):
        return self.with_terms({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.with_terms({((0,) * self.d, 0): other}, floor=-INF)
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Poly.const(c, self.d)
        return self.with_terms({key: c * v for key, v in self.terms.items()})

    # -- canonical form -------------------------------------------------------

    def buckets(self):
        """dict i -> DiffOp of the (left-form) numerators."""
        out = {}
        for (k, i), c in self.terms.items():
            cur = out.get(i)
            add = DiffOp(self.p, self.level, self.d, {k: c})
            out[i] = add if cur is None else cur + add
        return {i: op for i, op in out.items() if not op.is_zero()}

    def canonical(self) -> "MicroOp":
        """Divide each bucket's top symbol by the localizer symbol as far as
        possible, moving quotients to lower denominator powers.  Deterministic;
        makes T * T^(-1) literally 1."""
        if self.side != "left":
            return self  # canonical form defined on left presentations
        T = self.localizer().op
        sT = T.symbol_exact()
        if len(sT.terms) != 1:
            return self
        ((kT, cT),) = sT.terms.items()
        buckets = self.buckets()
        if not buckets:
            return self
        for i in range(max(buckets), 0, -1):
            B = buckets.get(i)
            if B is None:
                continue
            while not B.is_zero():
                h = _divide_symbol_top(B, kT, cT, self.p, self.level, self.d, self.laurent)
                if h is None:
                    break
                B = B - h * T
                lower = buckets.get(i - 1, DiffOp.zero(self.p, self.level, self.d)) + h
                buckets[i - 1] = lower
            if B.is_zero():
                buckets.pop(i, None)
            else:
                buckets[i] = B
        terms = {}
        for i, op in buckets.items():
            if op.is_zero():
                continue
            for k, c in op.terms.items():
                terms[(k, i)] = c
        return self.with_terms(terms)

    def _left_canonical(self) -> "MicroOp":
        """Canonical form of the left image: one per element, whichever
        presentation it comes in."""
        return convert_presentation(self, "left").canonical()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.with_terms({((0,) * self.d, 0): other}, floor=-INF)
        if not isinstance(other, MicroOp):
            return False
        a, b = self._left_canonical(), other._left_canonical()
        if a._meta() != b._meta():
            return False
        floor = max(a.floor, b.floor)
        return a.truncate(floor).terms == b.truncate(floor).terms

    def __hash__(self):
        # __eq__ truncates at the higher floor, which can drop any term, so
        # only the localizer data that equality always compares is hashed;
        # the side is left out, as either presentation of one element is equal
        return hash((self.p, self.level, self.mprime, self.theta, self.d))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (k, i) in sorted(
            self.terms,
            key=lambda ki: (-term_order(ki[0], ki[1], self.n, self.p, self.mprime), ki[1], ki[0]),
        ):
            c = self.terms[(k, i)]
            base = render_diffop(DiffOp(self.p, self.level, self.d, {k: c}))
            if i:
                part = f"({base})*T^-{i}" if self.side == "left" else f"T^-{i}*({base})"
            else:
                part = base
            parts.append(part)
        return " + ".join(parts)

    __repr__ = __str__

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": "microdiff-microop/2",
            "p": self.p,
            "level": self.level,
            "mprime": self.mprime,
            "d": self.d,
            "side": self.side,
            "laurent": self.laurent,
            "floor": None if self.floor == -INF else self.floor,
            "theta": [[list(k), _poly_json(c)] for k, c in sorted(self.theta.terms.items())],
            "terms": [
                {"k": list(k), "i": i, "coeff": _poly_json(c)}
                for (k, i), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MicroOp":
        p = data["p"]
        d = data["d"]
        theta = SymbolPoly(p, 0, d, {tuple(k): _poly_unjson(c, d) for k, c in data["theta"]})
        terms = {
            (tuple(t["k"]), t["i"]): _poly_unjson(t["coeff"], d) for t in data["terms"]
        }
        return cls(
            theta,
            data["level"],
            data["mprime"],
            terms,
            data["side"],
            -INF if data["floor"] is None else data["floor"],
            data["laurent"],
        )


def _poly_json(c: Poly):
    return [[list(e), str(v)] for e, v in sorted(c.coeffs.items())]


def _poly_unjson(data, d):
    return Poly(d, {tuple(e): Fraction(v) for e, v in data})


def _divide_symbol_top(B: DiffOp, kT, cT: Poly, p, m, d, laurent):
    """Quotient h (a DiffOp lift) with sigma(h)*sigma(T) = sigma(B), or None."""
    sB = B.symbol_exact()
    out = {}
    for k, b in sB.terms.items():
        kq = tuple(a - t for a, t in zip(k, kT))
        if any(e < 0 for e in kq):
            return None
        const = binomial_structure_constant_exact(p, m, kq, kT)
        q = b.divide_exact(cT.scale(const), laurent)
        if q is None:
            return None
        out[kq] = q
    return DiffOp(p, m, d, out)


# -- commutation engine -------------------------------------------------------


def _push_once(T: DiffOp, cur: dict, remaining: int, floor, korder: int, signed: bool, memo: dict):
    """One application of T^(-1) to a presentation dict t -> D_t.

    signed=True expands T^(-1) D = sum_s (-1)^s ad_T^s(D) T^(-s-1) (left pass);
    signed=False expands D T^(-1) = sum_s T^(-s-1) ad_T^s(D) (right pass).
    memo maps D -> ad_T(D) = [T, D].  Terms whose order cannot reach the
    floor after the remaining applications are pruned.
    """
    nxt = {}
    for t, D in cur.items():
        c = D
        s = 0
        while not c.is_zero():
            if floor != -INF and c.order() - (t + s + 1 + remaining) * korder < floor:
                break
            if floor == -INF and s > 4 * (abs(D.order()) + D.max_xdeg() + 8):
                raise ValueError(
                    "commutation series does not terminate; a finite window floor is required"
                )
            piece = c if (s % 2 == 0 or not signed) else -c
            key = t + s + 1
            nxt[key] = nxt.get(key, DiffOp.zero(D.p, D.m, D.d)) + piece
            ad = memo.get(c)
            if ad is None:
                ad = memo[c] = T.commutator(c)
            c = ad
            s += 1
    return {t: D for t, D in nxt.items() if not D.is_zero()}


def _push(T: DiffOp, i: int, Q: DiffOp, floor, korder: int, signed: bool, memo: dict):
    """Move T^(-i) past Q, one pass per power of T, modulo order < floor.

    signed=True: T^(-i) * Q = sum_t D_t T^(-t); signed=False:
    Q * T^(-i) = sum_t T^(-t) D_t.  korder is the order of T.
    """
    if Q.is_zero():
        return {}
    cur = {0: Q}
    for j in range(i, 0, -1):
        cur = _push_once(T, cur, j - 1, floor, korder, signed, memo)
    return cur


def ore_witness(T: DiffOp, a: DiffOp):
    """The Ore pair (T^N, r) with a * T^N = T * r, N the first s with ad_T^s(a) = 0.

    From T^(-1) a = sum_t D_t T^(-t): r = sum_t D_t T^(N-t).  Raises
    SearchBoundExceeded when ad_T is not nilpotent on a.
    """
    try:
        pushed = _push(T, 1, a, -INF, T.order(), True, {})
    except ValueError:
        raise SearchBoundExceeded("ad_T is not nilpotent on a: no T^N is an Ore witness") from None
    N = max(pushed, default=0)
    r = DiffOp.zero(a.p, a.m, a.d)
    for t, D in pushed.items():
        r = r + D * T ** (N - t)
    return T**N, r


def _right_decompose(D: DiffOp) -> dict:
    """Write D = sum_k D^<m><k> b_k; returns dict k -> b_k."""
    out = {}
    rest = D
    while not rest.is_zero():
        n = rest.order()
        top = {k: c for k, c in rest.terms.items() if sum(k) == n}
        sub = DiffOp.zero(D.p, D.m, D.d)
        for k, c in top.items():
            out[k] = out.get(k, Poly.zero(D.d)) + c
            mono = DiffOp(D.p, D.m, D.d, {k: Poly.const(1, D.d)})
            sub = sub + mono * DiffOp.from_poly(c, D.p, D.m)
        rest = rest - sub
    return {k: c for k, c in out.items() if not c.is_zero()}


def micro_multiply(P: MicroOp, Q: MicroOp) -> MicroOp:
    """Product, presented on P's side, truncated to the combined window.

    The ad_T memo lives for this one call: it is keyed by operator only, so
    it is valid for a single localizer T and is dropped on return.
    """
    P._check(Q)
    if P.side != "left":
        return convert_presentation(
            micro_multiply(convert_presentation(P, "left"), convert_presentation(Q, "left")),
            P.side,
        )
    T = P.localizer().op
    korder = P.localizer_order
    if P.is_zero() or Q.is_zero():
        return P.with_terms({}, floor=max(P.floor, Q.floor))
    floor = max(
        (P.floor + Q.order()) if P.floor != -INF else -INF,
        (Q.floor + P.order()) if Q.floor != -INF else -INF,
    )
    out = {}
    memo = {}
    for (k1, i1), b1 in P.terms.items():
        left = DiffOp(P.p, P.level, P.d, {k1: b1})
        for (k2, i2), b2 in Q.terms.items():
            right = DiffOp(P.p, P.level, P.d, {k2: b2})
            sub_floor = floor
            if sub_floor != -INF:
                sub_floor = floor + i2 * korder  # the T^(-i2) tail shifts orders down
            pushed = _push(T, i1, right, sub_floor, korder, True, memo)
            for t, D in pushed.items():
                prod = left * D
                i = t + i2
                for k, c in prod.terms.items():
                    key = (k, i)
                    out[key] = out.get(key, Poly.zero(P.d)) + c
    return MicroOp(
        P.theta, P.level, P.mprime, out, "left", floor, P.laurent or Q.laurent
    ).canonical()


def convert_presentation(P: MicroOp, target_side: str) -> MicroOp:
    """Rewrite on the other side; same coset up to the window floor.

    Both presentations invert the same localizer T, the left lift of theta
    (``MicroOp.localizer``).  A right term T^(-i) D^<m><k> b becomes left by
    pushing T^(-i) past D^<m><k> b in the signed pass; a left term
    b D^<m><k> T^(-i) becomes right by pushing T^(-i) the other way in the
    unsigned pass and right-decomposing the numerators.
    """
    if target_side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if P.side == target_side:
        return P
    T = P.localizer().op
    to_left = target_side == "left"
    out = {}
    memo = {}  # ad_T memo for this call
    for (k, i), b in P.terms.items():
        if to_left:
            Q = DiffOp(P.p, P.level, P.d, {k: Poly.const(1, P.d)}) * DiffOp.from_poly(b, P.p, P.level)
        else:
            Q = DiffOp(P.p, P.level, P.d, {k: b})
        for t, D in _push(T, i, Q, P.floor, P.localizer_order, to_left, memo).items():
            for kk, c in (D.terms if to_left else _right_decompose(D)).items():
                key = (kk, t)
                out[key] = out.get(key, Poly.zero(P.d)) + c
    return MicroOp(P.theta, P.level, P.mprime, out, target_side, P.floor, P.laurent)


# -- inversion --------------------------------------------------------------------


class ConvergenceProfile(FrozenRecord):
    """Per-order spectral-size exponents beta (|b| = p^beta), with verdict:
    ``betas`` maps an order to the max exponent of |coefficient|."""

    _fields = ("betas", "bounded", "note")
    _defaults = {"note": ""}

    def pairs(self) -> tuple:
        """The (order, beta) pairs by descending order."""
        return tuple(sorted(self.betas.items(), reverse=True))


def validate_convergence(P: MicroOp) -> ConvergenceProfile:
    if P.is_zero():
        return ConvergenceProfile({}, True, "zero operator: empty profile")
    betas = {}
    for N0 in P.orders():
        v = min(c.p_valuation(P.p) for c in P.order_part(N0).values())
        betas[N0] = -v
    orders = sorted(betas, reverse=True)
    # growth detection: a non-decreasing beta staircase with total growth >= 2
    # is evidence of unboundedness in the window.  Orders within one localizer
    # order of the floor are trimmed (truncation boundary artifacts).
    trimmed = orders
    if P.floor != -INF:
        trimmed = [N0 for N0 in orders if N0 >= P.floor + P.localizer_order]
    vals = [betas[N0] for N0 in trimmed]
    growing = (
        len(vals) >= 3
        and all(a <= b for a, b in zip(vals, vals[1:]))
        and vals[-1] - vals[0] >= 2
        and vals[-1] > 0
    )
    if growing:
        return ConvergenceProfile(
            betas, False, "beta grows steadily toward the window floor"
        )
    note = "finite presentation: limit conditions vacuous" if P.floor == -INF else ""
    return ConvergenceProfile(betas, True, note)


class InversionReport(FrozenRecord):
    # inverse: a MicroOp or None; profile: a ConvergenceProfile
    _fields = ("ok", "inverse", "profile", "left_residual_below_floor",
               "right_residual_below_floor", "note")
    _defaults = {"note": ""}


def invert_theta_tilde(theta: SymbolPoly, level: int, mprime: int, floor, laurent=False) -> MicroOp:
    """The inverse of the theta-tilde localizer itself, as a single-term
    presentation; coefficient of theta must be a unit on the chart."""
    for c in theta.terms.values():
        if c.is_constant():
            continue
        if laurent and len(c.coeffs) == 1:
            continue
        raise NotInvertibleAtSymbol(
            f"theta coefficient {c} is not a unit on the chart"
            + ("" if laurent else " (monomials need a monomial-unit chart)")
        )
    return MicroOp(theta, level, mprime, {((0,) * theta.d, 1): 1}, "left", floor, laurent)


def try_invert(P, theta: SymbolPoly, mprime: int, floor, laurent=False) -> InversionReport:
    """Invert P in the microlocalized ring at (P.m, mprime) on D(theta).

    P may be a DiffOp or a left-presented MicroOp.  sigma(P) must be a single
    monomial with unit coefficient on the chart; otherwise SymbolMismatch.
    Success returns a two-sided inverse plus residual certificates; an
    unbounded convergence profile is reported as a failed verdict with the
    partial expansion attached (evidence, not proof).
    """
    if isinstance(P, DiffOp):
        P = MicroOp.from_diffop(P, theta, mprime, laurent=laurent)
    if P.is_zero():
        raise SymbolMismatch("the zero operator is not invertible")
    if floor == -INF:
        raise ValueError("inversion requires a finite window floor")
    laurent = laurent or P.laurent
    korder = P.localizer_order
    w = P.order()
    top = P.order_part(w)
    if len(top) != 1:
        raise SymbolMismatch("top symbol is not a single monomial")
    ((k0, i0r),) = top.keys()
    c0 = top[(k0, i0r)]
    if not (c0.is_constant() or (laurent and len(c0.coeffs) == 1)):
        raise SymbolMismatch(f"top coefficient {c0} is not a unit on the chart")
    if P.d != 1:
        raise SymbolMismatch("inversion is implemented for d = 1")
    # first approximation: monomial S0 of order -w with P*S0 = 1 + (order < 0)
    t = max(0, -(-w // korder))  # ceil(w / korder), at least 0
    ks = t * korder - w
    S0 = P.with_terms({((ks,), t): 1}, floor=floor)
    R = micro_multiply(P.truncate(floor), S0)
    gamma = R.order_part(0)
    if list(gamma.keys()) != [((0,) * P.d, 0)]:
        raise SymbolMismatch("leading product term is not scalar")
    g = gamma[((0,) * P.d, 0)]
    ginv = Poly.const(1, P.d).divide_exact(g, laurent)
    if ginv is None:
        raise SymbolMismatch(f"leading coefficient {g} is not invertible on the chart")
    S0 = S0.scale(ginv)
    one = MicroOp.one(theta, P.level, mprime, floor=floor, laurent=laurent)
    e = micro_multiply(P.truncate(floor), S0) - one
    # geometric series (1+e)^(-1) = sum (-e)^t down to the floor
    acc = one
    termop = one
    while True:
        termop = micro_multiply(termop, -e)
        if termop.is_zero() or termop.order() < floor:
            break
        acc = acc + termop
    S = micro_multiply(S0, acc)
    # certificates: no residual term above the residual's own (drifted) floor
    left_res = micro_multiply(P.truncate(floor), S) - one
    right_res = micro_multiply(S, P.truncate(floor)) - one
    lok = left_res.truncate(left_res.floor + 1).canonical().is_zero()
    rok = right_res.truncate(right_res.floor + 1).canonical().is_zero()
    profile = validate_convergence(S)
    ok = lok and rok and profile.bounded
    note = "" if ok else (
        "unbounded convergence profile in window" if not profile.bounded else "residual above floor"
    )
    return InversionReport(ok, S, profile, lok, rok, note)


# -- level comparison ----------------------------------------------------------------


def change_presentation_level(P: MicroOp, new_level: int) -> MicroOp:
    """Rewrite the presentation at another lower level <= m' (exact over Q).

    D^<old><k> = (q^(old)!/q^(new)!) D^<new><k>, and the localizer ratios are
    powers of the level factorial constants r; order-preserving and strict.
    """
    if not 0 <= new_level <= P.mprime:
        raise LevelMismatch("presentation level must lie in [0, m']")
    if new_level == P.level:
        return P
    n = P.n
    gamma_old = level_factorial_ratio_exact(P.p, P.level, P.mprime) ** n
    gamma_new = level_factorial_ratio_exact(P.p, new_level, P.mprime) ** n
    ratio = gamma_new / gamma_old  # (T_old)^(-i) = ratio^i (T_new)^(-i)
    out = {}
    for (k, i), b in P.terms.items():
        const = ratio**i
        for kj in k:
            const *= level_shift_constant(kj, P.p, P.level, new_level)
        out[(k, i)] = b.scale(const)
    return MicroOp(P.theta, new_level, P.mprime, out, P.side, P.floor, P.laurent)


def psi_level_lower(P: MicroOp, m: int) -> MicroOp:
    """The level-lowering map psi_{m,m'}: rewrite an (l, m')-presentation at
    level m <= l; exact over Q, order-preserving."""
    if m > P.level:
        raise LevelMismatch("psi only lowers the level")
    return change_presentation_level(P, m)


class MembershipVerdict(FrozenRecord):
    # status: "InEmm'" | "OnlyInEm'" | "Undetermined" | "NotInEm'"
    _fields = ("status", "witness")


def membership_intermediate(P: MicroOp, m: int) -> MembershipVerdict:
    """Membership of P (presented at level m') in the intermediate ring
    E^(m,m'): needs (a) p-integrality at level m' and (b) p-integrality of the
    psi image at level m for all orders >= 0 (negative orders are automatic)."""
    mprime = P.level
    Pc = P.canonical()
    if not Pc.is_integral():
        bad = min(
            (c.p_valuation(P.p), (k, i)) for (k, i), c in Pc.terms.items()
        )
        return MembershipVerdict(
            "NotInEm'", f"level-{mprime} coefficient at {bad[1]} has valuation {bad[0]}"
        )
    if Pc.floor > 0:
        # orders < 0 never matter (E^(m,m')_0 = E^(m')_0), so truncation is
        # only blocking when the window fails to reach order 0
        return MembershipVerdict(
            "Undetermined", f"window floor {Pc.floor} hides orders in [0, {Pc.floor})"
        )
    image = psi_level_lower(Pc, m)
    worst = None
    for (k, i), c in image.canonical().terms.items():
        if term_order(k, i, P.n, P.p, P.mprime) < 0:
            continue  # automatic: E^(m,m')_0 = E^(m')_0
        v = c.p_valuation(P.p)
        if v < 0 and (worst is None or v < worst[0]):
            worst = (v, (k, i))
    if worst is not None:
        return MembershipVerdict(
            "OnlyInEm'",
            f"psi image term {worst[1]} has valuation {worst[0]} at order >= 0",
        )
    return MembershipVerdict("InEmm'", "integral at level m' and psi image integral for orders >= 0")


def observed_a_bound(p: int, m: int, mprime: int, k: int, imax: int = 3) -> int:
    """Empirical tightener: largest denominator exponent seen in level-m'
    presentations of D^<m><l> (T^(m,m'))^(-i), theta = xi, over the terms
    of order >= k with i <= imax and l <= twice the localizer order."""
    theta = SymbolPoly.xi(p, 0)
    korder = p**mprime  # the localizer order for theta = xi
    worst = 0
    for i in range(imax + 1):
        for l in range(2 * korder + 1):
            if l - i * korder < k:
                continue
            P = MicroOp(theta, m, mprime, {((l,), i): 1})
            v = change_presentation_level(P, mprime).p_valuation()
            if v < 0:
                worst = max(worst, -v)
    return worst
