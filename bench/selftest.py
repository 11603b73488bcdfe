"""Self-test of the benchmark's oracles and checks; runs in seconds.

    python3 bench/selftest.py

1. The closed-form inverses multiply back to 1 under the oracles' own
   pseudo-differential product, on both sides.
2. microdiff agrees with them, with the hand-derived variety table, with the
   re-classification of its standard bases, and with the CLI expectations,
   and repeats its output byte for byte.
3. Every check rejects a deliberately wrong answer.
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import battery  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def oracle_products():
    floor = -8
    cases = [("d-c", c) for c in (1, 2, -3)] + [("d-x", 0)] + [("xd-lam", lam) for lam in (0, 1, -2, 3)]
    for family, param in cases:
        P, S = oracles.inverse_oracle(family, param, floor)
        one = {0: {0: Fraction(1)}}
        left = {k: v for k, v in oracles.op_mul(P, S, floor + 1).items()}
        right = {k: v for k, v in oracles.op_mul(S, P, floor + 1).items()}
        expect(left == one and right == one, f"oracle {family}({param}): P*S = S*P = 1 above {floor + 1}")


def run_op(md, op, full=True):
    run, leading = worker.build(md, op)
    out = run()
    return out, (leading() if leading and full else None)


def program_against_oracles():
    import microdiff as md

    ops = []
    for p in (2, 3):
        ops += [dict(kind="inverse", p=p, family=f, param=c)
                for f, c in (("d-c", 1), ("d-c", -3), ("d-x", 0))]
        ops += [dict(kind="localizer", p=p, m=m, mprime=mp) for m, mp in ((0, 0), (0, 2), (1, 2))]
        ops += [dict(kind="module", p=p, level=0, rel=r) for r in ("d-x", "d", "x", "1")]
        ops += [dict(kind="char", p=p, level=lvl, rel=r) for lvl in (1, 2) for r in ("d", "x", "1", "d-1")]
    ops += [dict(kind="inverse", p=2, family="xd-lam", param=1),
            dict(kind="module", p=2, level=1, rel="d"),
            dict(kind="char", p=2, level=1, rel="d-x"),
            dict(kind="char", p=3, level=1, rel="xd"),
            dict(kind="refine", p=2, a=2, b=1, c=-1)]
    outs = {}
    for op in ops:
        out, lead = run_op(md, op)
        again, _ = run_op(md, op, full=False)
        name = "/".join(str(v) for v in op.values())
        why = checks.check_op(op, out, lead)
        expect(why is None, f"program {name}" + (f": {why}" if why else ""))
        expect(checks.digest(out) == checks.digest(again), f"byte-identical {name}")
        outs[name] = (op, out, lead)
    return outs


def rejects_wrong_answers(outs):
    def mutated(key, change):
        op, out, lead = outs[key]
        out = copy.deepcopy(out)
        change(out)
        return checks.check_op(op, out, lead)

    def bump_coeff(out):
        out["inverse"]["terms"][-1]["coeff"][0][1] = "7"

    def swap_fiber(out):
        out["char"]["fibers"] = ["x + 1"]

    def drop_truncation(out):
        out["shallow"]["inverse"]["terms"] = out["shallow"]["inverse"]["terms"][:-1]

    def bump_both_windows(out):
        # the same wrong leading coefficient at both floors: self-consistent
        for rep in (out["deep"], out["shallow"]):
            rep["inverse"]["terms"][0]["coeff"][0][1] = "7"

    def uncertified(out):
        out["deep"]["right_residual"] = False

    expect(mutated("inverse/2/d-x/0", bump_coeff) is not None, "check rejects a wrong inverse")
    expect(mutated("localizer/3/0/2", bump_coeff) is not None, "check rejects a wrong localizer inverse")
    expect(mutated("module/2/0/x", swap_fiber) is not None, "check rejects a wrong variety")
    expect(mutated("char/3/1/xd", swap_fiber) is not None, "re-classification rejects a wrong variety")
    expect(mutated("refine/2/2/1/-1", drop_truncation) is not None, "check rejects a broken refinement")
    expect(mutated("refine/2/2/1/-1", bump_both_windows) is not None,
           "check rejects a refinement wrong at both floors")
    expect(mutated("refine/2/2/1/-1", uncertified) is not None,
           "check rejects an uncertified refinement")

    def disagree(out):
        out["crosscheck"]["agree"] = False

    expect(mutated("module/2/1/d", disagree) is not None, "check rejects a crosscheck disagreement")


def cli_expectations():
    # the benchmark covers the costly commands; kept out to stay fast
    ops = [op for op in battery.cli_ops(0)
           if op["argv"][0] not in ("supp", "stability", "verify-counterexample")]
    first, again = (worker.cli_pass(None, ops, None)[-1] for _ in range(2))
    for op, res, res2 in zip(ops, first, again):
        why = checks.check_cli(op, *res["out"])
        if op["fault"]:
            expect(why is not None, f"cli {op['id']} still fails today ({why})")
        else:
            expect(why is None, f"cli {op['id']}" + (f": {why}" if why else ""))
        expect(res["out"] == res2["out"], f"cli byte-identical {op['id']}")
    bad = next(op for op in battery.cli_ops(0) if op["argv"][:2] == ["normcalc-bounds", "--p"])
    wrong = json.dumps({"schema": checks.SCHEMA, "a_k": 1, "b_k": 2, "alpha": {"0": 0}})
    expect(checks.check_cli(bad, 0, wrong, "") is not None, "cli check rejects wrong bounds")


def main():
    oracle_products()
    outs = program_against_oracles()
    rejects_wrong_answers(outs)
    cli_expectations()
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
