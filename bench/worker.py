"""One pass over a workload's battery, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON object: the CPU time of set-up (from interpreter start), each op's
CPU and wall time, error and output as plain data, the peak resident set of
the timed part, and with --trace 1 the per-layer numbers.  With --full-check 1
it also re-computes each module's standard basis after the timed loop and
ships its leading data.  The worker imports neither the checks nor the
oracles (sympy comes in only if microdiff loads it), so its set-up time and
memory are the program's own; run.py checks the outputs.
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import battery

OP_CAP_S = 30  # an op that runs longer counts as failed


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def build(md, op):
    """Turn an op spec into a zero-argument callable returning plain data."""
    kind, p = op["kind"], op.get("p")
    xi = md.SymbolPoly.xi(p, 0) if p else None

    def operator(terms, level=0):
        coeffs = {}
        for c, a, b in terms:
            coeffs.setdefault((b,), {})[(a,)] = c
        return md.DiffOp(p, level, 1, {k: md.Poly(1, v) for k, v in coeffs.items()})

    def module():
        M = md.CyclicModule(p, 0, [operator(battery.RELATIONS[op["rel"]])])
        return M.level_raised(op["level"]) if op["level"] else M

    def report(rep):
        return dict(ok=rep.ok, left_residual=rep.left_residual_below_floor,
                    right_residual=rep.right_residual_below_floor,
                    inverse=rep.inverse.to_json())

    if kind in ("module", "char"):
        M = module()

        def run():
            cv = md.char_variety(M, md.Bounds())
            out = {"char": cv.to_json()}
            if kind == "module":
                rep = md.micro_support_test(
                    M, levels=[op["level"]], window=battery.SUPPORT_WINDOW, char=cv)
                out["verdicts"] = [[v.chart_class, v.verdict]
                                   for v in rep["levels"][op["level"]]]
                out["crosscheck"] = rep["crosscheck"]
            return out

        def leading():
            sb = md.order_standard_basis(M, md.Bounds())
            return [[n, sorted([e[0], str(c)] for e, c in f.coeffs.items())]
                    for n, f in sb.leading]

        return run, leading
    if kind == "localizer":
        T = md.build_theta_tilde(xi, op["m"], op["mprime"]).op
        return (lambda: report(md.try_invert(
            T, xi, op["mprime"], floor=battery.LOCALIZER_FLOOR))), None
    if kind == "inverse":
        terms = {"d-c": ((1, 0, 1), (-op["param"], 0, 0)), "d-x": battery.RELATIONS["d-x"],
                 "xd-lam": ((1, 1, 1), (-op["param"], 0, 0))}[op["family"]]
        P = operator(terms)
        laurent = op["family"] == "xd-lam"
        return (lambda: report(md.try_invert(
            P, xi, 0, floor=battery.INVERSE_FLOOR, laurent=laurent))), None
    if kind == "refine":
        P = operator(((1, 0, op["a"]), (op["b"], 1, 0), (op["c"], 0, 0)))
        deep, shallow = battery.REFINE_FLOORS

        def run():
            return dict(deep=report(md.try_invert(P, xi, 0, floor=deep)),
                        shallow=report(md.try_invert(P, xi, 0, floor=shallow)))

        return run, None
    raise ValueError(kind)


def warm_up(md, workload):
    """Finish lazy set-up (sympy's factoring code, first-call paths) on cheap
    p = 5 inputs that are in no battery."""
    p = 5
    d, x = md.DiffOp.dx(p, 0), md.DiffOp.x(p, 0)
    if workload == "charvar":
        md.char_variety(md.CyclicModule(p, 0, [x]).level_raised(1), md.Bounds())
        md.char_variety(md.CyclicModule(p, 0, [x * d]), md.Bounds())
        return
    for rels in ([x * d - md.DiffOp.one(p, 0)], [d - x]):
        M = md.CyclicModule(p, 0, rels)
        md.micro_support_test(M, [0], window=-3, char=md.char_variety(M, md.Bounds()))


def compute_pass(args, ops, tracer):
    import microdiff as md

    runs = [build(md, op) for op in ops]
    warm_up(md, args.workload)
    setup_s = time.process_time()
    results = []
    signal.signal(signal.SIGALRM, _alarm)
    if tracer:
        tracer.install()
    t_pass = time.process_time()
    for op, (run, _) in zip(ops, runs):
        t0, w0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            out, err = run(), None
        except OpTimeout:
            out, err = None, f"hit the {OP_CAP_S} s cap"
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append(dict(id=op["id"], ms=(time.process_time() - t0) * 1e3,
                            wall_ms=(time.perf_counter() - w0) * 1e3, error=err, out=out))
    pass_s = time.process_time() - t_pass
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    if args.full_check:
        for (_, leading), res in zip(runs, results):
            if leading and res["out"] is not None:
                res["leading"] = leading()
    return setup_s, pass_s, rss_kb, results


def cli_pass(args, ops, tracer):
    """The cli battery in-process through microdiff.cli.main (traced mode).
    Each op's output is its exit code, stdout and stderr."""
    import microdiff.cli as cli

    cli.build_parser()
    setup_s = time.process_time()
    results = []
    if tracer:
        tracer.install()
    t_pass = time.process_time()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op["argv"]))
            except Exception as exc:  # what the interpreter would print and exit 1 on
                print(f"Traceback: {type(exc).__name__}", file=sys.stderr)
                code = 1
        ms = (time.process_time() - t0) * 1e3
        results.append(dict(id=op["id"], ms=ms, error=None,
                            out=[code, out.getvalue(), err.getvalue()]))
    pass_s = time.process_time() - t_pass
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    return setup_s, pass_s, rss_kb, results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(battery.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--full-check", type=int, default=1)
    ap.add_argument("--spans", default=None, help="write the spans here (gzip JSON lines)")
    args = ap.parse_args()
    ops = battery.OPS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    body = cli_pass if args.workload == "cli" else compute_pass
    setup_s, pass_s, rss_kb, results = body(args, ops, tracer)
    doc = dict(setup_s=setup_s, pass_s=pass_s, ops=results, rss_kb=rss_kb)
    if tracer:
        doc["layers"] = tracer.metrics()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
