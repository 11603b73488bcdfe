"""The three workload batteries, as plain data built from the seed.

Nothing here imports microdiff: the parent process, the pass worker and the
self-test all read the same specs.  A relation is a tuple of level-0 terms
(coefficient, x-power, d-power); an op is a dict with a stable "id".
"""

import random

RELATIONS = {
    "d": ((1, 0, 1),),
    "x": ((1, 1, 0),),
    "1": ((1, 0, 0),),
    "d-1": ((1, 0, 1), (-1, 0, 0)),
    "d-x": ((1, 0, 1), (-1, 1, 0)),
    "xd": ((1, 1, 1),),
    "xd-1": ((1, 1, 1), (-1, 0, 0)),
    "xd-2": ((1, 1, 1), (-2, 0, 0)),
    "(x+1)d": ((1, 1, 1), (1, 0, 1)),
    "d-x^2": ((1, 0, 1), (-1, 2, 0)),
    "x^2d-1": ((1, 2, 1), (-1, 0, 0)),
    "d^2-x": ((1, 0, 2), (-1, 1, 0)),
    "d^2-xd-1": ((1, 0, 2), (-1, 1, 1), (-1, 0, 0)),
}

# criterion-8 battery of the acceptance gate
LEVEL0_BATTERY = ("d-x", "d", "xd", "xd-1", "xd-2", "x", "1")

SUPPORT_WINDOW = -6
INVERSE_FLOOR = -6
LOCALIZER_FLOOR = -20  # below the order 9 of the p=3, m'=2 localizer
REFINE_FLOORS = (-10, -5)

# (p, level, relation); each completes its standard basis under default Bounds
CHARVAR_BATTERY = (
    (2, 1, "d"), (2, 1, "x"), (2, 1, "1"), (2, 1, "d-1"), (2, 1, "d-x"),
    (2, 1, "xd"), (2, 1, "(x+1)d"), (2, 1, "x^2d-1"), (2, 1, "d-x^2"),
    (2, 2, "xd-1"), (2, 2, "d-x"),
    (2, 3, "d^2-xd-1"), (2, 3, "d-x"),
    (3, 1, "d"), (3, 1, "x"), (3, 1, "xd"), (3, 1, "d^2-x"), (3, 1, "x^2d-1"),
    (3, 2, "d-1"), (3, 2, "1"), (3, 2, "d^2-x"),
    (3, 3, "d-x^2"),
)

# (argv, exit code expected by the README's table, known fault or None)
CLI_BATTERY = (
    (["mul", "--p", "2", "--expr", "(d1 - x1)^3"], 0, None),
    (["symbol", "--p", "3", "--expr", "x1*d1^2 + 3*d1"], 0, None),
    (["levelmap", "--p", "2", "--expr", "d1^2", "--mprime", "1"], 0, None),
    (["psi", "--p", "2", "--expr", "Tinv(xi1,1,1)", "--m", "0",
      "--window-floor", "-6"], 0, None),
    (["invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0",
      "--window-floor", "-6"], 0, None),
    (["member", "--p", "2", "--P", "Tinv2(xi1,1,2)", "--m", "0",
      "--mprime", "1"], 0, None),
    (["char", "--p", "2", "--level", "1", "--rel", "d1 - x1"], 0, None),
    (["supp", "--p", "2", "--rel", "x1*d1 - 1", "--window-floor", "-6"], 2, None),
    (["stability", "--p", "2", "--rel", "x1*d1 - 1", "--mprime-max", "1",
      "--window-floor", "-6"], 0, None),
    (["verify-counterexample", "--p", "2", "--nmax", "8"], 0, None),
    (["normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1", "--k", "4"], 0, None),
    # boundary commands: bad input must fail with one `error:` line
    (["char", "--p", "4", "--rel", "d1 - x1"], 1,
     "non-prime p is accepted and certified complete"),
    (["char", "--p", "2", "--level", "-1", "--rel", "d1 - x1"], 1,
     "negative level dies with a TypeError traceback"),
)


def support_ops(seed):
    ops = []
    for p in (2, 3):
        for name in LEVEL0_BATTERY:
            ops.append(dict(kind="module", p=p, level=0, rel=name))
    for name in LEVEL0_BATTERY:
        if name != "d-x":  # crosscheck disagrees today, see CHANGES.md
            ops.append(dict(kind="module", p=2, level=1, rel=name))
    for p in (2, 3):
        for m in range(3):
            for mp in range(m, 3):
                ops.append(dict(kind="localizer", p=p, m=m, mprime=mp))
        for c in (1, 2, -3):
            ops.append(dict(kind="inverse", p=p, family="d-c", param=c))
        ops.append(dict(kind="inverse", p=p, family="d-x", param=0))
    for p, lam in ((2, 1), (2, -2), (3, 0)):
        ops.append(dict(kind="inverse", p=p, family="xd-lam", param=lam))
    # criterion-11 refinement cases P = d^2 + b x + c; the seed draws the
    # signs of b and c, which leave the cost alone.  Only order 2: an order-1
    # case costs 0.5 s to 1.1 s depending on (b, c).
    rng = random.Random(seed)
    for p in (2, 3):
        for b, c in ((2, 1), (3, 2)):
            ops.append(dict(kind="refine", p=p, a=2, b=rng.choice((b, -b)),
                            c=rng.choice((c, -c))))
    return _finish(ops)


def charvar_ops(seed):  # no random inputs
    ops = [dict(kind="char", p=p, level=lvl, rel=name) for p, lvl, name in CHARVAR_BATTERY]
    return _finish(ops)


def cli_ops(seed):  # no random inputs
    ops = [
        dict(kind="cli", argv=argv + ["--json"], exit=code, fault=fault)
        for argv, code, fault in CLI_BATTERY
    ]
    return _finish(ops)


def _op_id(op):
    if op["kind"] == "cli":
        return "cli/" + " ".join(op["argv"])
    keys = [k for k in op if k != "kind"]
    return op["kind"] + "/" + ",".join(f"{k}={op[k]}" for k in keys)


def _finish(ops):
    """Attach ids.  The order stays fixed: in one interpreter the order of
    the ops moved the time of the same ops by about 10%."""
    for op in ops:
        op["id"] = _op_id(op)
    return ops


OPS = {"support": support_ops, "charvar": charvar_ops, "cli": cli_ops}
