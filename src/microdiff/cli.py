"""Command-line front end: parse operator/symbol expressions, run the
library operations, emit human-readable and JSON reports.

Exit codes: 0 success, 2 honest partiality (Undetermined verdicts, bounds
exhausted, window-limited evidence), 1 errors.  Output is ASCII only and
byte-deterministic for a fixed command line.
"""

import argparse
import re
import sys
from fractions import Fraction

from .errors import ExprSyntaxError, InvalidParameter, MicrodiffError
from .padic import check_prime_and_level, normcalc_bounds
from .polynomials import Poly
from .pseudopoly import SymbolPoly
from .diffop import DiffOp, level_map_phi, order_and_symbol, render_diffop
# microloc is imported where a value needs it: a Tinv atom, the psi, invert
# and member commands; a command without one never loads it
from .charvar import (
    Bounds,
    CyclicModule,
    char_variety,
    micro_support_test,
    stability_probe,
    verify_counterexample,
)

SCHEMA = "microdiff-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


# -- expression parser --------------------------------------------------------------

# Parentheses and unary minus signs nest at most this deep; each level costs
# a few Python frames in the recursive descent below.
MAX_NESTING = 100

# No `^` takes a larger exponent: `mul --p 2 --expr "(d1+x1)^32"` takes about
# 0.3 s of CPU on one Xeon core, and each doubling of the exponent costs 7 to
# 10 times more.
MAX_EXPONENT = 32

# The parser's value types by rank; a mixed sum or product is lifted to the
# higher rank.  Any other value is a MicroOp (rank 3), which only a Tinv atom
# makes, so this table names no microloc type.
_RANK = {int: 0, Fraction: 0, SymbolPoly: 1, DiffOp: 2}
_MICRO = 3


def _rank(v):
    return _RANK.get(type(v), _MICRO)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()\[\],=]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError(
                    f"unexpected character {text[pos]!r}", span=(pos, pos + 1)
                )
            break
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    """Recursive descent for +, -, * (noncommutative), ^ on atoms.

    Atoms: integers; `p` and `p^e` (the session prime); `x<j>`; `d<j>`
    (level-m basis via the session level, default 0); `D<j>[m,k]` (explicit
    divided basis element); `xi<j>` (degree-1 level-0 symbol, for localizer
    expressions); `Tinv<w>(theta, m, mprime)` (the w-th inverse power of the
    theta-tilde localizer, presented at level m w.r.t. level mprime).
    """

    def __init__(self, text, session):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.s = session

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if (kind and tok[0] != kind) or (value is not None and tok[1] != value):
            raise ExprSyntaxError(
                f"expected {value or kind}, found {tok[1]!r}", span=(tok[2], tok[2] + 1)
            )
        self.i += 1
        return tok

    def parse(self):
        v = self.expr()
        self.take("end")
        return v

    def expr(self):
        v = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            w = self.term()
            v = self._add(v, w if op == "+" else -w)
        return v

    def term(self):
        v = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take("op", "*")
            v = self._mul(v, self.factor())
        return v

    def nested(self, parse):
        """parse() one nesting level deeper; too deep is a syntax error, not
        a RecursionError."""
        if self.depth >= MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply")
        self.depth += 1
        v = parse()
        self.depth -= 1
        return v

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take("op", "-")
            return -self.nested(self.factor)
        v = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take("op", "^")
            if _rank(v) == _MICRO:
                raise ExprSyntaxError(
                    "no powers of micro-operators: write Tinv<w>(...) or an explicit product"
                )
            neg = False
            if self.peek()[:2] == ("op", "-"):
                self.take("op", "-")
                neg = True
            tok = self.take("num")
            e = tok[1]
            if e > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent {e} exceeds the cap of {MAX_EXPONENT}",
                    span=(tok[2], tok[2] + len(str(e))),
                )
            if neg:
                if isinstance(v, (int, Fraction)):
                    if v == 0 and e:
                        raise ExprSyntaxError("0 has no negative power")
                    v = Fraction(1, 1) / Fraction(v) ** e
                else:
                    raise ExprSyntaxError("negative powers need Tinv(...)")
            else:
                v = v**e
        return v

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            return self.take("num")[1]
        if tok[:2] == ("op", "("):
            self.take("op", "(")
            v = self.nested(self.expr)
            self.take("op", ")")
            return v
        if tok[0] == "name":
            return self.name_atom()
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", span=(tok[2], tok[2] + 1))

    def name_atom(self):
        tok = self.take("name")
        name = tok[1]
        if name == "p":
            return self.s.p
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            j = int(m.group(1)) - 1
            self._check_coord(j, tok)
            if self.s.symbol_mode:
                return SymbolPoly(
                    self.s.p, 0, self.s.d, {(0,) * self.s.d: Poly.var(j, self.s.d)}
                )
            return DiffOp.x(self.s.p, self.s.level, j, self.s.d)
        m = re.fullmatch(r"d(\d+)", name)
        if m:
            j = int(m.group(1)) - 1
            self._check_coord(j, tok)
            if self.s.symbol_mode:
                raise ExprSyntaxError("use xi<j> inside a symbol expression")
            return DiffOp.dx(self.s.p, self.s.level, 1, j, self.s.d)
        m = re.fullmatch(r"xi(\d+)", name)
        if m:
            j = int(m.group(1)) - 1
            self._check_coord(j, tok)
            return SymbolPoly.xi(self.s.p, 0, 1, j, self.s.d)
        m = re.fullmatch(r"D(\d+)", name)
        if m:
            j = int(m.group(1)) - 1
            self._check_coord(j, tok)
            self.take("op", "[")
            lvl = self.take("num")[1]
            self.take("op", ",")
            k = self.take("num")[1]
            self.take("op", "]")
            return DiffOp.dx(self.s.p, lvl, k, j, self.s.d)
        m = re.fullmatch(r"Tinv(\d*)", name)
        if m:
            power = int(m.group(1)) if m.group(1) else 1
            return self.tinv_atom(power)
        raise ExprSyntaxError(f"unknown name {name!r}", span=(tok[2], tok[2] + len(name)))

    def tinv_atom(self, power):
        self.take("op", "(")
        was = self.s.symbol_mode
        self.s.symbol_mode = True
        try:
            theta = self.nested(self.expr)
        finally:
            self.s.symbol_mode = was
        if isinstance(theta, (int, Fraction)):
            raise ExprSyntaxError("Tinv needs a symbol, not a scalar")
        args = []
        while self.peek()[:2] == ("op", ","):
            self.take("op", ",")
            if self.peek()[0] == "name":  # keyword form m=0
                self.take("name")
                self.take("op", "=")
            args.append(self.take("num")[1])
        self.take("op", ")")
        m_lvl = args[0] if args else self.s.level
        mprime = args[1] if len(args) > 1 else m_lvl
        from .microloc import MicroOp

        return MicroOp(
            theta,
            m_lvl,
            mprime,
            {((0,) * self.s.d, power): 1},
            "left",
            self.s.window_floor,
            self.s.laurent,
        )

    def _check_coord(self, j, tok):
        if not 0 <= j < self.s.d:
            raise ExprSyntaxError(
                f"coordinate index out of range for d={self.s.d}",
                span=(tok[2], tok[2] + len(str(tok[1]))),
            )

    # -- mixed-type arithmetic ------------------------------------------

    def _add(self, a, b):
        a, b = self._coerce(a, b)
        return a + b

    def _mul(self, a, b):
        a, b = self._coerce(a, b)
        if _rank(a) == _MICRO:
            from .microloc import micro_multiply

            return micro_multiply(a, b)
        return a * b

    def _coerce(self, a, b):
        """Lift scalars and DiffOps so both operands share a type."""
        hi = max(_rank(a), _rank(b))
        return self._lift(a, hi, b), self._lift(b, hi, a)

    def _lift(self, v, hi, other):
        # at rank _MICRO, other is a MicroOp: type(other) is the class
        if isinstance(v, (int, Fraction)):
            c = Fraction(v)
            if hi == 1:
                return SymbolPoly.scalar(c, self.s.p, other.m, self.s.d)
            if hi == 2:
                return DiffOp.scalar(c, self.s.p, other.m, self.s.d)
            if hi == _MICRO:
                return type(other).one(
                    other.theta, other.level, other.mprime,
                    floor=other.floor, laurent=other.laurent,
                ).scale(c)
            return c
        if isinstance(v, DiffOp) and hi == _MICRO:
            return type(other).from_diffop(
                v, other.theta, other.mprime, floor=other.floor, laurent=other.laurent
            )
        if isinstance(v, SymbolPoly) and hi >= 2:
            raise ExprSyntaxError("cannot mix symbols and operators in one expression")
        return v


class Session:
    """Shared context for one CLI invocation; all values share p and live on
    the affine line, d = 1."""

    def __init__(self, p, level=0, window_floor=-12, laurent=False):
        check_prime_and_level(p, level)
        self.p = p
        self.level = level
        self.window_floor = window_floor
        self.d = 1
        self.laurent = laurent
        self.symbol_mode = False


def parse(text, session):
    """Parse an expression to a DiffOp, SymbolPoly, MicroOp, or scalar."""
    return _Parser(text, session).parse()


def parse_symbol(text, session):
    session.symbol_mode = True
    try:
        v = parse(text, session)
    finally:
        session.symbol_mode = False
    if not isinstance(v, SymbolPoly):
        raise ExprSyntaxError("expected a symbol expression")
    return v


# -- rendering ---------------------------------------------------------------------


def _render(v):
    return render_diffop(v) if isinstance(v, DiffOp) else str(v)


def _json_value(v):
    if _rank(v) == _MICRO:
        return v.to_json()
    if isinstance(v, DiffOp):
        return {"kind": "diffop", "level": v.m, "text": render_diffop(v)}
    return {"kind": "scalar", "text": str(v)}


# -- commands ----------------------------------------------------------------------


def _emit(args, payload, exit_code):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in _human_lines(payload):
            print(line)
    return exit_code


def _human_lines(payload, prefix=""):
    lines = []
    for key in sorted(payload):
        if key == "schema":
            continue
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_human_lines(val, prefix + "  "))
        elif isinstance(val, list):
            lines.append(f"{prefix}{key}: " + "; ".join(str(v) for v in val))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


def cmd_mul(args, session):
    v = parse(args.expr, session)
    payload = {"command": "mul", "p": session.p, "result": _json_value(v),
               "text": _render(v)}
    return _emit(args, payload, EXIT_OK)


def cmd_symbol(args, session):
    v = parse(args.expr, session)
    if not isinstance(v, DiffOp):
        raise ExprSyntaxError("symbol needs a differential operator")
    os_ = order_and_symbol(v)
    payload = {
        "command": "symbol",
        "p": session.p,
        "order": os_.order,
        "symbol": str(os_.symbol),
        "secondary": (
            {"order": os_.secondary[0], "symbol": str(os_.secondary[1])}
            if os_.secondary
            else None
        ),
    }
    return _emit(args, payload, EXIT_OK)


def cmd_levelmap(args, session):
    v = parse(args.expr, session)
    if not isinstance(v, DiffOp):
        raise ExprSyntaxError("levelmap needs a differential operator")
    w = level_map_phi(v, args.mprime)
    payload = {"command": "levelmap", "p": session.p, "mprime": args.mprime,
               "result": _json_value(w), "text": _render(w)}
    return _emit(args, payload, EXIT_OK)


def cmd_psi(args, session):
    v = parse(args.expr, session)
    if _rank(v) != _MICRO:
        raise ExprSyntaxError("psi needs a microlocal operator")
    from .microloc import psi_level_lower

    w = psi_level_lower(v, args.m)
    payload = {"command": "psi", "p": session.p, "m": args.m,
               "result": _json_value(w), "text": str(w)}
    return _emit(args, payload, EXIT_OK)


def cmd_invert(args, session):
    v = parse(args.expr, session)
    if _rank(v) < 2:
        raise ExprSyntaxError("invert needs a differential or microlocal operator")
    theta = parse_symbol(args.theta, session)
    from .microloc import try_invert

    rep = try_invert(v, theta, args.mprime, floor=session.window_floor, laurent=args.laurent)
    payload = {
        "command": "invert",
        "p": session.p,
        "ok": rep.ok,
        "note": rep.note,
        "betas": [list(pair) for pair in rep.profile.pairs()],
        "bounded": rep.profile.bounded,
        "left_residual_below_floor": rep.left_residual_below_floor,
        "right_residual_below_floor": rep.right_residual_below_floor,
        "inverse": rep.inverse.to_json() if rep.inverse is not None else None,
        "text": str(rep.inverse) if rep.inverse is not None else "",
    }
    return _emit(args, payload, EXIT_OK if rep.ok else EXIT_PARTIAL)


def cmd_member(args, session):
    v = parse(args.P, session)
    if _rank(v) != _MICRO:
        raise ExprSyntaxError("member needs a microlocal operator (use Tinv)")
    from .microloc import change_presentation_level, membership_intermediate

    if v.level != args.mprime:
        v = change_presentation_level(v, args.mprime)
    verdict = membership_intermediate(v, args.m)
    payload = {
        "command": "member",
        "p": session.p,
        "m": args.m,
        "mprime": args.mprime,
        "status": verdict.status,
        "witness": verdict.witness,
    }
    code = EXIT_PARTIAL if verdict.status == "Undetermined" else EXIT_OK
    return _emit(args, payload, code)


def _module_from_args(args, session):
    rels = [parse(r, session) for r in args.rel]
    for r in rels:
        if not isinstance(r, DiffOp):
            raise ExprSyntaxError("relations must be differential operators")
    rels = [r.level_shift(args.level) if r.m != args.level else r for r in rels]
    return CyclicModule(session.p, args.level, rels)


def _bounds_from_args(args):
    return Bounds(max_order=args.max_order, max_xdeg=args.max_xdeg,
                  precision=args.precision)


def cmd_char(args, session):
    session.level = args.level
    M = _module_from_args(args, session)
    cv = char_variety(M, _bounds_from_args(args))
    payload = {"command": "char", "p": session.p, "level": args.level}
    payload.update(cv.to_json())
    return _emit(args, payload, EXIT_OK if cv.complete else EXIT_PARTIAL)


def cmd_supp(args, session):
    session.level = args.level
    M = _module_from_args(args, session)
    cv = char_variety(M, _bounds_from_args(args))
    levels = args.at_levels or [args.level]
    rep = micro_support_test(M, levels, window=session.window_floor, char=cv)
    verdicts = {
        str(lvl): [
            {"chart": v.chart_class, "verdict": v.verdict, "note": v.note}
            for v in vs
        ]
        for lvl, vs in rep["levels"].items()
    }
    partial = not cv.complete or any(
        v.verdict == "PersistsUpToWindow" for vs in rep["levels"].values() for v in vs
    )
    payload = {
        "command": "supp",
        "p": session.p,
        "verdicts": verdicts,
        "crosscheck": rep["crosscheck"],
        "char_class": cv.char_class,
    }
    return _emit(args, payload, EXIT_PARTIAL if partial else EXIT_OK)


def cmd_stability(args, session):
    session.level = args.level
    M = _module_from_args(args, session)
    rep = stability_probe(M, args.mprime_max, _bounds_from_args(args))
    payload = {
        "command": "stability",
        "p": session.p,
        "stable_from": rep["stable_from"],
        "flags": rep["flags"],
        "rows": [
            {
                "level": r["level"],
                "char_class": r["char"]["char_class"],
                "fibers": r["char"]["fibers"],
                "complete": r["char"]["complete"],
            }
            for r in rep["rows"]
        ],
    }
    code = EXIT_OK if rep["stable_from"] is not None and not rep["flags"] else EXIT_PARTIAL
    return _emit(args, payload, code)


def cmd_verify_counterexample(args, session):
    rep = verify_counterexample(session.p, n_max=args.nmax)
    payload = {
        "command": "verify-counterexample",
        "p": session.p,
        "n_max": args.nmax,
        "all_ok": rep["all_ok"],
        "checks": rep["checks"],
    }
    return _emit(args, payload, EXIT_OK if rep["all_ok"] else EXIT_ERROR)


def cmd_normcalc_bounds(args, session):
    rep = normcalc_bounds(args.d, session.p, args.m, args.mprime, args.k)
    payload = {"command": "normcalc-bounds", "p": session.p}
    payload.update(rep)
    return _emit(args, payload, EXIT_OK)


# -- argument plumbing --------------------------------------------------------------


def _config_tokens(path):
    """The `key=value` lines of a config file as command-line tokens:
    `--key=value`, or the bare switch `--key` for `key=true` (`key=false`
    gives nothing).  Blank lines and `#` comments are skipped."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise InvalidParameter(f"cannot read config file {path!r}: {exc}") from exc
    tokens = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        val = val.strip()
        if val.lower() == "true":
            tokens.append(flag)
        elif val.lower() != "false":
            tokens.append(f"{flag}={val}")
    return tokens


def build_parser():
    top = argparse.ArgumentParser(
        prog="microdiff",
        description="Exact-arithmetic calculator for level-m differential "
        "operators, microlocalizations, and characteristic varieties (d=1).",
    )

    # the options every command takes, shared through argparse's parents
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="the prime")
    common.add_argument("--precision", type=int, default=20)
    common.add_argument("--window-floor", type=int, default=-12, dest="window_floor")
    common.add_argument("--max-order", type=int, default=16, dest="max_order")
    common.add_argument("--max-xdeg", type=int, default=24, dest="max_xdeg")
    common.add_argument("--json", action="store_true")
    common.add_argument("--config", default=None)
    common.add_argument("--level", type=int, default=0, help="working level m")
    common.add_argument("--laurent", action="store_true",
                            help="allow monomial units (punctured x-chart)")

    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, parents=[common], help=help)

    sp = command("mul", "evaluate an operator expression")
    sp.add_argument("--expr", required=True)
    sp.set_defaults(func=cmd_mul)

    sp = command("symbol", "order and principal symbol mod p")
    sp.add_argument("--expr", required=True)
    sp.set_defaults(func=cmd_symbol)

    sp = command("levelmap", "canonical map to a higher level")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--mprime", type=int, required=True)
    sp.set_defaults(func=cmd_levelmap)

    sp = command("psi", "level-lowering map on microlocal operators")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_psi)

    sp = command("invert", "attempt microlocal inversion")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--theta", default="xi1")
    sp.add_argument("--mprime", type=int, required=True)
    sp.set_defaults(func=cmd_invert)

    sp = command("member", "intermediate-ring membership")
    sp.add_argument("--P", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--mprime", type=int, required=True)
    sp.set_defaults(func=cmd_member)

    sp = command("char", "characteristic variety of a cyclic module")
    sp.add_argument("--rel", action="append", required=True)
    sp.set_defaults(func=cmd_char)

    sp = command("supp", "microlocal support verdicts")
    sp.add_argument("--rel", action="append", required=True)
    sp.add_argument("--at-levels", type=int, nargs="*", dest="at_levels")
    sp.set_defaults(func=cmd_supp)

    sp = command("stability", "Char table over levels, and the least stable level")
    sp.add_argument("--rel", action="append", required=True)
    sp.add_argument("--mprime-max", type=int, required=True, dest="mprime_max")
    sp.set_defaults(func=cmd_stability)

    sp = command("verify-counterexample", "non-stability suite")
    sp.add_argument("--nmax", type=int, default=30)
    sp.set_defaults(func=cmd_verify_counterexample)

    sp = command("normcalc-bounds", "valuation bounds a_k, b_k")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--mprime", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.set_defaults(func=cmd_normcalc_bounds)

    return top


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's flags go right after the command, before the
            # user's own: argparse keeps the last value, so those win
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        session = Session(
            p=args.p,
            level=args.level,
            window_floor=args.window_floor,
            laurent=args.laurent,
        )
        return args.func(args, session)
    except MicrodiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
