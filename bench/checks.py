"""Compare microdiff's outputs, as plain JSON data, with the oracles.

Every check returns None when the output is right, or a one-line reason.
"""

import hashlib
import json
from fractions import Fraction

import sympy

import battery
import oracles

SCHEMA = "microdiff-report/1"


def digest(out):
    """A short fingerprint of an output, to see that it repeats exactly."""
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]


def by_order(microop):
    """A to_json() MicroOp over the localizer d (theta = xi, m' = 0) as
    {order: {x-exponent: Fraction}}: D^<0><k> T^-i is d^(k-i)."""
    out = {}
    for t in microop["terms"]:
        order = t["k"][0] - t["i"]
        coeff = {e[0]: Fraction(c) for e, c in t["coeff"]}
        out[order] = oracles.padd(out.get(order, {}), coeff)
    return {k: v for k, v in out.items() if v}


def _variety(cv):
    return (cv["char_class"], cv["zero_section"], cv["fibers"], cv["points"])


def check_inverse(out, expected, floor):
    if not (out["ok"] and out["left_residual"] and out["right_residual"]):
        return "no two-sided certified inverse"
    inv = out["inverse"]
    if inv["floor"] != floor:
        return f"inverse certified to {inv['floor']}, asked for {floor}"
    if by_order(inv) != expected:
        return "inverse differs from the closed form"
    return None


def check_variety(op, out, leading):
    """Shared by support and charvar ops: certificate, hand or level-0
    table, and the re-classification of the standard basis."""
    cv = out["char"]
    if not cv["complete"]:
        return "standard basis incomplete"
    got = _variety(cv)
    exp = oracles.expected_variety(
        op["rel"], battery.RELATIONS[op["rel"]], op["p"], op["level"]
    )
    if exp is not None and got != exp:
        return f"variety {got} != expected {exp}"
    if leading is not None:
        lead = [(n, {int(e): Fraction(c) for e, c in f}) for n, f in leading]
        again = oracles.reclassify(lead, op["p"], op["level"])
        if got != again:
            return f"variety {got} != re-classified leading data {again}"
    return None


def check_support(op, out, leading):
    why = check_variety(op, out, leading)
    if why:
        return why
    cross = out["crosscheck"]
    if not cross or cross.get("agree") is not True:
        return f"crosscheck {cross}"
    if cross["support_fibers"] != out["char"]["fibers"]:
        return "support fibers differ from the variety's fibers"
    for chart, verdict in out["verdicts"]:
        want = "Vanishes" if chart == "generic" else "PersistsUpToWindow"
        if verdict != want:
            return f"{chart}: {verdict}"
    return None


def check_refine(op, out):
    """Both windows certified; P S = S P = 1 in every order that the deep
    window fixes; the deep inverse truncates to the shallow one."""
    floors = dict(zip(("deep", "shallow"), battery.REFINE_FLOORS))
    for name, floor in floors.items():
        rep = out[name]
        if not (rep["ok"] and rep["left_residual"] and rep["right_residual"]):
            return f"{name}: no two-sided certified inverse"
        if rep["inverse"]["floor"] != floor:
            return f"{name}: inverse certified to {rep['inverse']['floor']}, asked for {floor}"
    P = oracles.op_from_terms(((1, 0, op["a"]), (op["b"], 1, 0), (op["c"], 0, 0)))
    S = by_order(out["deep"]["inverse"])
    # the orders of S below the deep floor reach P S and S P only below floor + a
    exact = floors["deep"] + op["a"]
    one = {0: {0: Fraction(1)}}
    if oracles.op_mul(P, S, exact) != one or oracles.op_mul(S, P, exact) != one:
        return "the deep inverse times P is not 1"
    shallow = by_order(out["shallow"]["inverse"])
    if {k: v for k, v in S.items() if k >= floors["shallow"]} != shallow:
        return "deep inverse does not truncate to the shallow one"
    return None


def check_op(op, out, leading=None):
    kind = op["kind"]
    if kind == "module":
        return check_support(op, out, leading)
    if kind == "char":
        return check_variety(op, out, leading)
    if kind == "localizer":
        # T^(m,m') times the single term T^-1 is 1 by definition
        if not (out["ok"] and out["left_residual"] and out["right_residual"]):
            return "no two-sided certified inverse"
        if [(t["k"], t["i"], t["coeff"]) for t in out["inverse"]["terms"]] != [
            ([0], 1, [[[0], "1"]])
        ]:
            return "inverse is not the single term T^-1"
        return None
    if kind == "inverse":
        _, expected = oracles.inverse_oracle(op["family"], op["param"], battery.INVERSE_FLOOR)
        return check_inverse(out, expected, battery.INVERSE_FLOOR)
    if kind == "refine":
        return check_refine(op, out)
    raise ValueError(kind)


# -- command line ------------------------------------------------------------


def _expr(text, *names):
    syms = {n: sympy.Symbol(n) for n in names}
    return sympy.sympify(text.replace("^", "**"), locals=syms)


def _weyl_text_matches(text, P):
    """text renders sum c(x1) d1^k with the coefficient on the left."""
    x1, d1 = sympy.symbols("x1 d1")
    want = sum(
        sympy.Rational(c.numerator, c.denominator) * x1**e * d1**k
        for k, f in P.items() for e, c in f.items()
    )
    return sympy.expand(_expr(text, "x1", "d1") - want) == 0


def _cli_payload(argv, data):
    cmd = argv[0]
    arg = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "mul":
        P = oracles.op_from_terms(((1, 0, 1), (-1, 1, 0)))
        cube = oracles.op_mul(oracles.op_mul(P, P, 0), P, 0)
        return None if _weyl_text_matches(data["text"], cube) else "wrong cube"
    if cmd == "symbol":
        xs, xi = sympy.symbols("x xi")
        ok = data["order"] == 2 and data["secondary"] is None and sympy.expand(
            _expr(data["symbol"], "x", "xi") - xs * xi**2) == 0
        return None if ok else "wrong order or symbol"
    if cmd == "levelmap":
        c = 1 / oracles.divided_const(2, 2, 1)  # d^2 = (k!/q!) D^<1><2>
        ok = data["result"]["level"] == 1 and data["text"] == f"{c}*D1[1,2]"
        return None if ok else "wrong level map"
    if cmd == "psi":
        # T^(1,1) = D^<1><2> = c d^2 = c T^(0,1), so T^(1,1)^-1 = (1/c) T^(0,1)^-1
        c = 1 / oracles.divided_const(2, 2, 1)
        res = data["result"]
        ok = (res["level"], res["mprime"]) == (0, 1) and [
            (t["k"], t["i"], t["coeff"]) for t in res["terms"]
        ] == [([0], 1, [[[0], str(c)]])]
        return None if ok else "wrong psi image"
    if cmd == "invert":
        floor = int(arg["--window-floor"])
        out = dict(ok=data["ok"], left_residual=data["left_residual_below_floor"],
                   right_residual=data["right_residual_below_floor"],
                   inverse=data["inverse"])
        return check_inverse(out, oracles.inverse_d_minus_f({1: Fraction(1)}, floor), floor)
    if cmd == "member":
        return None if data["status"] == "InEmm'" else data["status"]
    if cmd == "char":
        got = (data["char_class"], data["zero_section"], data["fibers"], data["points"])
        ok = data["complete"] and got == ("fiber-set", False, ["x + 1"], [])
        return None if ok else f"variety {got}"
    if cmd == "supp":
        exp = oracles.level0_variety(battery.RELATIONS["xd-1"], 2)
        cross = data["crosscheck"]
        ok = (data["char_class"] == exp[0] and cross["agree"] is True
              and cross["support_fibers"] == exp[2]
              and [(v["chart"], v["verdict"]) for v in data["verdicts"]["0"]]
              == [("generic", "Vanishes")] + [(f"fiber[{f}]", "PersistsUpToWindow") for f in exp[2]])
        return None if ok else "wrong support verdicts"
    if cmd == "stability":
        rows = data["rows"]
        keys = [(r["char_class"], r["fibers"]) for r in rows]
        exp = oracles.level0_variety(battery.RELATIONS["xd-1"], 2)
        stable = next(i for i in range(len(keys)) if all(k == keys[i] for k in keys[i:]))
        ok = (keys[0] == (exp[0], exp[2]) and all(r["complete"] for r in rows)
              and data["stable_from"] == rows[stable]["level"] and data["flags"] == [])
        return None if ok else "wrong stability table"
    if cmd == "verify-counterexample":
        names = {c["check"] for c in data["checks"]}
        ok = data["all_ok"] and all(c["ok"] for c in data["checks"]) and {
            "closed-form", "norm-identity", "partial-power-leading"} <= names
        return None if ok else "counterexample suite not verified"
    if cmd == "normcalc-bounds":
        exp = oracles.normcalc(1, 2, int(arg["--m"]), int(arg["--mprime"]), int(arg["--k"]))
        got = {k: data[k] for k in exp}
        return None if got == exp else f"bounds {got} != {exp}"
    raise ValueError(cmd)


def check_cli(op, code, stdout, stderr):
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != op["exit"]:
        return f"exit code {code}, expected {op['exit']}"
    if code == 1:
        lines = stderr.strip().splitlines()
        if stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            return "an error must print exactly one `error:` line"
        return None
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if data.get("schema") != SCHEMA:
        return "wrong schema"
    return _cli_payload(op["argv"], data)
