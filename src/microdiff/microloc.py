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

from fractions import Fraction

from .diffop import DiffOp, ThetaTilde, build_theta_tilde
from .errors import (
    IncompatibleLocalizer,
    LevelMismatch,
    NotInvertibleAtSymbol,
    SearchBoundExceeded,
    SymbolMismatch,
)
from .padic import (  # alpha_bound and normcalc_bounds are exported here too
    INF,
    alpha_bound,
    binomial_structure_constant_exact,
    level_factorial_ratio_exact,
    normcalc_bounds,
)
from .polynomials import Poly
from .pseudopoly import SymbolPoly, TermSum, check_window, rational_level_change
from .record import FrozenRecord


class MicroOp(TermSum):
    """Microdifferential operator presented at level ``level`` with localizer
    theta-tilde at levels (level, mprime): ``terms`` maps (k, i) to the
    coefficient of the term of order |k| - i * localizer order, and terms
    below the window floor are left out."""

    __slots__ = (
        "p", "level", "mprime", "theta", "side", "d",
        "terms", "floor", "laurent", "n", "localizer_order", "_localizer",
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
        # theta_variants checks theta for build_theta_tilde, once per localizer
        self._localizer = build_theta_tilde(theta, level, mprime)
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
        self.n = theta.degree()
        self.localizer_order = self._localizer.order
        self._set_terms(terms)

    def _key(self, key):
        k, i = key
        if i < 0:
            raise ValueError("negative localizer powers only (i >= 0)")
        k = self._exponent(k)
        if sum(k) - i * self.localizer_order >= self.floor:
            return k, i
        return None

    # -- basics -----------------------------------------------------------

    def localizer(self) -> ThetaTilde:
        return self._localizer

    def _meta(self):
        return (self.p, self.level, self.mprime, self.theta, self.side, self.d)

    def with_terms(self, terms, floor=None):
        """Terms on this operator's localizer, side and chart: the theta
        checked by the constructor is not checked again, the terms are."""
        new = MicroOp.__new__(MicroOp)
        new.p, new.level, new.mprime, new.theta, new.side, new.d = self._meta()
        new.laurent, new.n = self.laurent, self.n
        new.localizer_order, new._localizer = self.localizer_order, self._localizer
        new.floor = self.floor if floor is None else floor
        new._set_terms(terms)
        return new

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

    def order(self):
        if not self.terms:
            return -INF
        korder = self.localizer_order
        return max(sum(k) - i * korder for k, i in self.terms)

    def order_part(self, N0):
        korder = self.localizer_order
        return {(k, i): c for (k, i), c in self.terms.items() if sum(k) - i * korder == N0}

    def truncate(self, floor) -> "MicroOp":
        return self.with_terms(self.terms, floor=max(floor, self.floor))

    # -- additive structure -------------------------------------------------

    def _check(self, other: "MicroOp"):
        if not isinstance(other, MicroOp):
            raise IncompatibleLocalizer(f"cannot combine a MicroOp with a {type(other).__name__}")
        if self._meta() != other._meta():
            raise IncompatibleLocalizer(f"{self._meta()} vs {other._meta()}")

    def lift(self, v):
        """A number or a DiffOp v as an operator on this one's localizer and
        side, exact at every order (floor -inf); any other value as it is."""
        if isinstance(v, (int, Fraction)):
            return self.with_terms({((0,) * self.d, 0): v}, floor=-INF)
        if isinstance(v, DiffOp):
            lifted = MicroOp.from_diffop(v, self.theta, self.mprime, laurent=self.laurent)
            return convert_presentation(lifted, self.side)
        return v

    def __add__(self, other):
        other = self.lift(other)
        self._check(other)
        out = self.with_terms(self._merged(other), floor=max(self.floor, other.floor))
        out.laurent = self.laurent or other.laurent  # joins the charts as micro_multiply does
        return out

    # -- canonical form -------------------------------------------------------

    def buckets(self):
        """dict i -> DiffOp of the (left-form) numerators."""
        out = {}
        for (k, i), c in self.terms.items():
            out.setdefault(i, {})[k] = c
        return {i: DiffOp(self.p, self.level, self.d, terms) for i, terms in out.items()}

    def canonical(self) -> "MicroOp":
        """One form per element, which equality compares and in which
        T * T^(-1) is literally 1: on a left presentation with a one-term
        T = c*D^<m><K>, each bucket, from the highest power of T^(-1) down,
        moves its top terms b at (k, i) to (k - K, i - 1) as h = b / (c *
        <k-K, K>) while all of them divide, and sheds h*T: the top part and,
        for c not a constant, the Leibniz tail in D^J(c), J != 0.  Any other
        operator comes back as it is."""
        T = self._localizer.op
        if self.side != "left" or not self.terms or len(T.terms) != 1:
            return self
        ((K, c),) = T.terms.items()
        p, m, laurent, has_tail = self.p, self.level, self.laurent, not c.is_constant()
        buckets = {}
        for (k, i), b in self.terms.items():
            buckets.setdefault(i, {})[k] = b
        for i in range(max(buckets), 0, -1):
            B = buckets.get(i, {})
            while B:
                n = max(sum(k) for k in B)
                top = [k for k in B if sum(k) == n]
                kqs = [tuple(a - t for a, t in zip(k, K)) for k in top]
                if any(e < 0 for kq in kqs for e in kq):
                    break
                us = [binomial_structure_constant_exact(p, m, kq, K) for kq in kqs]
                h = {kq: B[k].divide_exact(c.scale(u), laurent) for k, kq, u in zip(top, kqs, us)}
                if any(q is None for q in h.values()):  # not divisible on the chart
                    break
                for k in top:
                    del B[k]
                if has_tail:
                    for k, v in (DiffOp(p, m, self.d, h) * T).terms.items():
                        if sum(k) < n:
                            _accumulate(B, k, -v)
                lower = buckets.setdefault(i - 1, {})
                for kq, q in h.items():
                    _accumulate(lower, kq, q)
            if not B:
                buckets.pop(i, None)
        return self.with_terms({(k, i): b for i, B in buckets.items() for k, b in B.items()})

    def _left_canonical(self) -> "MicroOp":
        """Canonical form of the left image: one per element, whichever
        presentation it comes in."""
        return convert_presentation(self, "left").canonical()

    def __eq__(self, other):
        # a number is lifted; a DiffOp is not, so that equality stays
        # symmetric with DiffOp.__eq__, which never equals a MicroOp
        if isinstance(other, (int, Fraction)):
            other = self.lift(other)
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
        # the side is left out, as either presentation of one element is equal.
        # Unlike a DiffOp, a scalar MicroOp cannot hash as its number: its
        # zero equals 0 and its one equals 1, and both share this one hash
        return hash((self.p, self.level, self.mprime, self.theta, self.d))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (k, i) in sorted(
            self.terms,
            key=lambda ki: (-(sum(ki[0]) - ki[1] * self.localizer_order), ki[1], ki[0]),
        ):
            c = self.terms[(k, i)]
            base = str(DiffOp(self.p, self.level, self.d, {k: c}))
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


def _accumulate(terms: dict, key, c: Poly):
    """terms[key] += c in place; a sum that cancels leaves the dict."""
    c = terms[key] + c if key in terms else c
    if c.is_zero():
        del terms[key]
    else:
        terms[key] = c


# -- commutation engine -------------------------------------------------------

NOT_NILPOTENT = "commutation series does not terminate; a finite window floor is required"


def _push(T: DiffOp, i: int, Q: DiffOp, floor, korder: int, signed: bool, memo: dict):
    """Move T^(-i) past Q, one pass per power of T, modulo order < floor.

    signed=True expands T^(-1) D = sum_s (-1)^s ad_T^s(D) T^(-s-1), giving
    T^(-i) * Q = sum_t D_t T^(-t); signed=False expands D T^(-1) =
    sum_s T^(-s-1) ad_T^s(D), giving Q * T^(-i) = sum_t T^(-t) D_t.  korder
    is the order of T.  memo maps D -> [T, D] exactly, whatever the floor,
    so every push past one T may share it, as the products of one
    ``try_invert`` do.  Terms that cannot reach the floor after the
    remaining passes are pruned.  At an exact floor (-inf),
    SearchBoundExceeded when ad_T is not nilpotent on a term:
    for T = c*D^<m><K> with c a constant, at once if a coefficient has a
    negative exponent in an x_j with K_j != 0 (the D-power of ad_T^s(b*D^k)
    that falls by s in coordinate j carries only the s-th x_j-derivative of
    b), and for any other T after a step bound.
    """
    if Q.is_zero():
        return {}
    K = next(iter(T.terms))
    decided = len(T.terms) == 1 and T.terms[K].is_constant()
    if floor == -INF and decided and i and any(
        e[j] < 0 and K[j] for b in Q.terms.values() for e in b.coeffs for j in range(Q.d)
    ):
        raise SearchBoundExceeded(NOT_NILPOTENT)
    cur = {0: Q}
    for remaining in range(i - 1, -1, -1):
        nxt = {}
        for t, D in cur.items():
            c = D
            s = 0
            while not c.is_zero():
                if c.order() - (t + s + 1 + remaining) * korder < floor:
                    break
                if floor == -INF and not decided and s > 4 * (abs(D.order()) + D.max_xdeg() + 8):
                    raise SearchBoundExceeded(NOT_NILPOTENT)
                piece = c if (s % 2 == 0 or not signed) else -c
                key = t + s + 1
                nxt[key] = nxt.get(key, DiffOp.zero(D.p, D.m, D.d)) + piece
                ad = memo.get(c)
                if ad is None:
                    ad = memo[c] = T.commutator(c)
                c = ad
                s += 1
        cur = {t: D for t, D in nxt.items() if not D.is_zero()}
    return cur


def ore_witness(T: DiffOp, a: DiffOp):
    """The Ore pair (T^N, r) with a * T^N = T * r, N the first s with ad_T^s(a) = 0.

    From T^(-1) a = sum_t D_t T^(-t): r = sum_t D_t T^(N-t).  Raises
    SearchBoundExceeded when ad_T is not nilpotent on a.
    """
    pushed = _push(T, 1, a, -INF, T.order(), True, {})
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
            _accumulate(out, k, c)
            mono = DiffOp(D.p, D.m, D.d, {k: Poly.const(1, D.d)})
            sub = sub + mono * DiffOp.from_poly(c, D.p, D.m)
        rest = rest - sub
    return out


def micro_multiply(P: MicroOp, Q: MicroOp, *, memo=None) -> MicroOp:
    """Product, presented on P's side, truncated to the combined window.

    memo maps D -> [T, D] exactly, with no floor, for P's localizer T only;
    it is keyed by operator alone, so it may be shared by products over one
    T (as ``try_invert`` does) and by no others.  A fresh dict is used when
    none is given.
    """
    P._check(Q)
    if P.side != "left":
        return convert_presentation(
            micro_multiply(
                convert_presentation(P, "left"), convert_presentation(Q, "left"), memo=memo
            ),
            P.side,
        )
    T = P.localizer().op
    korder = P.localizer_order
    if P.is_zero() or Q.is_zero():
        return P.with_terms({}, floor=max(P.floor, Q.floor))
    floor = max(P.floor + Q.order(), Q.floor + P.order())
    out = {}
    if memo is None:
        memo = {}
    rights = [(i2, DiffOp(P.p, P.level, P.d, {k2: b2})) for (k2, i2), b2 in Q.terms.items()]
    for (k1, i1), b1 in P.terms.items():
        left = DiffOp(P.p, P.level, P.d, {k1: b1})
        for i2, right in rights:
            sub_floor = floor + i2 * korder  # the T^(-i2) tail shifts orders down
            for t, D in _push(T, i1, right, sub_floor, korder, True, memo).items():
                for k, c in (left * D).terms.items():
                    _accumulate(out, (k, t + i2), c)
    prod = P.with_terms(out, floor)
    prod.laurent = P.laurent or Q.laurent  # joins the charts as __add__ does
    return prod.canonical()


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
                _accumulate(out, (kk, t), c)
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
    for (k, i), c in P.terms.items():
        N0 = sum(k) - i * P.localizer_order
        betas[N0] = max(betas.get(N0, -INF), -c.p_valuation(P.p))
    orders = sorted(betas, reverse=True)
    # growth detection: a non-decreasing beta staircase with total growth >= 2
    # is evidence of unboundedness in the window.  Orders within one localizer
    # order of the floor are trimmed (truncation boundary artifacts).
    vals = [betas[N0] for N0 in orders if N0 >= P.floor + P.localizer_order]
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
        if not c.is_unit(laurent):
            raise NotInvertibleAtSymbol(
                f"theta coefficient {c} is not a unit on the chart"
                + ("" if laurent else " (monomials need a monomial-unit chart)")
            )
    return MicroOp(theta, level, mprime, {((0,) * theta.d, 1): 1}, "left", floor, laurent)


def try_invert(P, theta: SymbolPoly, mprime: int, floor, laurent=False) -> InversionReport:
    """Invert P in the microlocalized ring at (P.m, mprime) on D(theta).

    P may be a DiffOp or a left-presented MicroOp on the localizer (theta,
    mprime); a MicroOp on another is refused with IncompatibleLocalizer
    before any product.  P is read in its canonical form, so every
    presentation of one element gets one verdict.  sigma(P) must be a single
    monomial with unit coefficient on the chart; otherwise SymbolMismatch.
    The window floor must be a finite integer >= MIN_WINDOW_FLOOR (-32);
    any other is refused with InvalidParameter (``check_window``).  The
    floors of the products inside may drift lower.
    Success returns a two-sided inverse plus residual certificates; an
    unbounded convergence profile is reported as a failed verdict with the
    partial expansion attached (evidence, not proof).
    """
    if isinstance(P, DiffOp):
        P = MicroOp.from_diffop(P, theta, mprime, laurent=laurent)
    elif (P.theta, P.mprime) != (theta, mprime):
        raise IncompatibleLocalizer(
            f"P is presented over theta = {P.theta}, m' = {P.mprime}, "
            f"not theta = {theta}, m' = {mprime}"
        )
    P = P.canonical()
    if P.is_zero():
        raise SymbolMismatch("the zero operator is not invertible")
    check_window(floor)
    laurent = laurent or P.laurent
    korder = P.localizer_order
    w = P.order()
    top = P.order_part(w)
    if len(top) != 1:
        raise SymbolMismatch("top symbol is not a single monomial")
    ((k0, i0r),) = top.keys()
    c0 = top[(k0, i0r)]
    if not c0.is_unit(laurent):
        raise SymbolMismatch(f"top coefficient {c0} is not a unit on the chart")
    if P.d != 1:
        raise SymbolMismatch("inversion is implemented for d = 1")
    P = P.truncate(floor)
    # one ad_T memo for every product below: all are left-presented over P's
    # (theta, level, m'), so they share the localizer T
    memo = {}
    # first approximation: monomial S0 of order -w with P*S0 = 1 + (order < 0)
    t = max(0, -(-w // korder))  # ceil(w / korder), at least 0
    ks = t * korder - w
    S0 = P.with_terms({((ks,), t): 1}, floor=floor)
    R = micro_multiply(P, S0, memo=memo)
    gamma = R.order_part(0)
    if list(gamma.keys()) != [((0,) * P.d, 0)]:
        raise SymbolMismatch("leading product term is not scalar")
    g = gamma[((0,) * P.d, 0)]
    ginv = Poly.const(1, P.d).divide_exact(g, laurent)
    if ginv is None:
        raise SymbolMismatch(f"leading coefficient {g} is not invertible on the chart")
    S0 = S0.scale(ginv)
    one = MicroOp.one(theta, P.level, mprime, floor=floor, laurent=laurent)
    if ginv.is_constant():
        # a constant commutes with every D^<m><k> and T^(-i), so
        # P*(ginv*S0) = ginv*(P*S0) term for term, with the same floor
        e = R.scale(ginv) - one
    else:  # a unit such as 1/x on the Laurent chart does not commute with P
        e = micro_multiply(P, S0, memo=memo) - one
    # geometric series (1+e)^(-1) = sum (-e)^t down to the floor
    ratio = -e
    acc = one
    termop = one
    while True:
        termop = micro_multiply(termop, ratio, memo=memo)
        if termop.is_zero() or termop.order() < floor:
            break
        acc = acc + termop
    S = micro_multiply(S0, acc, memo=memo)
    # certificates: no residual term above the residual's own (drifted) floor;
    # each is canonical as it is, since a product comes back canonical,
    # subtracting 1 touches only T^0, and a cut keeps each bucket's top terms
    left_res = micro_multiply(P, S, memo=memo) - one
    right_res = micro_multiply(S, P, memo=memo) - one
    lok = left_res.truncate(left_res.floor + 1).is_zero()
    rok = right_res.truncate(right_res.floor + 1).is_zero()
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
    shifted = {i: rational_level_change(B, new_level) for i, B in P.buckets().items()}
    out = {(k, i): shifted[i].terms[k].scale(ratio**i) for k, i in P.terms}
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
    worst = None
    # psi rescales terms without changing which tops divide: still canonical
    for (k, i), c in psi_level_lower(Pc, m).terms.items():
        if sum(k) - i * P.localizer_order < 0:
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
