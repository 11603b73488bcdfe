"""Benchmark of microdiff: the `support`, `charvar` and `cli` workloads.

    python3 bench/run.py --workload support --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Passes run one at a time, each in a fresh interpreter, while the next one is
expected to end within --seconds (at least MIN_PASSES).  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from traced passes alternated with
untraced ones.  bench/README.md describes the workloads and the metrics.
"""

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import battery  # noqa: E402
from tracing import COUNT_METRICS, LAYER_METRICS  # noqa: E402

MIN_PASSES = 3
HARD_LIMIT_S = 160  # no pass starts after this, so every run ends within 180 s
CLI_CAP_S = 30  # one command that runs longer counts as failed

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms.geomean", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def spawn(argv, timeout):
    """Run a child to its end.  Returns the CompletedProcess (None if killed
    at the timeout) and the child's CPU seconds (user + system)."""
    cpu0 = children_cpu()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc = None
    return proc, children_cpu() - cpu0


def worker_pass(args, deadline, trace, full_check, spans=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(trace), "--full-check", str(full_check)]
    if spans:
        argv += ["--spans", str(spans)]
    proc, _ = spawn(argv, deadline - time.monotonic())
    if proc is None or proc.returncode != 0 or not proc.stdout.strip():
        tail = "" if proc is None else proc.stderr.strip()[-2000:]
        raise RunError(f"pass worker failed: {tail or 'killed at the deadline'}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_pass(args, ops, deadline):
    """Every command of the battery as `python -m microdiff.cli` in a fresh
    interpreter; set-up is a fresh interpreter importing the cli and
    building its parser."""
    py = sys.executable
    probe, setup_s = spawn([py, "-c", "import microdiff.cli as c; c.build_parser()"],
                           deadline - time.monotonic())
    if probe is None or probe.returncode != 0:
        raise RunError("cannot import microdiff.cli: " + ("" if probe is None else probe.stderr[-2000:]))
    results = []
    for op in ops:
        cap = min(CLI_CAP_S, deadline - time.monotonic())
        w0 = time.monotonic()
        proc, cpu = spawn([py, "-m", "microdiff.cli", *op["argv"]], cap)
        wall_ms = (time.monotonic() - w0) * 1e3
        if proc is None:
            results.append(dict(id=op["id"], ms=cpu * 1e3, wall_ms=wall_ms,
                                error=f"hit the {cap:.0f} s cap"))
            continue
        results.append(dict(id=op["id"], ms=cpu * 1e3, wall_ms=wall_ms, error=None,
                            out=[proc.returncode, proc.stdout, proc.stderr]))
    return dict(setup_s=setup_s, pass_s=sum(r["ms"] for r in results) / 1e3, ops=results)


def import_probe(deadline):
    """cli.import_s and sympy's share of it, from `python -X importtime`."""
    proc, _ = spawn([sys.executable, "-X", "importtime", "-c", "import microdiff.cli"],
                    deadline - time.monotonic())
    if proc is None or proc.returncode != 0:
        raise RunError("import probe failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|(\s*)(\S+)", line)
        if m:
            cumulative.setdefault(m.group(4), int(m.group(2)) / 1e6)
    return cumulative.get("microdiff.cli", 0.0), cumulative.get("sympy", 0.0)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(max(v, 1e-6)) for v in values) / len(values))


def judge(ops, passes):
    """Check every op's output against the oracles, after the last pass.
    `checks` imports sympy, and a child's peak resident set starts at its
    parent's (Linux keeps the larger at exec), so it is imported only here.
    Outputs repeat exactly between passes, so each distinct output is checked
    once, first with the first pass's leading data."""
    import checks

    by_id = {op["id"]: op for op in ops}
    verdicts = {}
    for doc in passes:
        for res in doc["ops"]:
            out, leading = res.pop("out", None), res.pop("leading", None)
            if out is None:
                continue
            op = by_id[res["id"]]
            res["digest"] = checks.digest(out)
            key = (res["id"], res["digest"])
            if key not in verdicts:
                verdicts[key] = (checks.check_cli(op, *out) if op["kind"] == "cli"
                                 else checks.check_op(op, out, leading))
            res["wrong"] = verdicts[key]


def tally(ops, passes):
    """attempted, failed, correctness, and the failure reasons by op id."""
    known = {op["id"] for op in ops if op.get("fault")}
    attempted = failed = 0
    correct = True
    reasons = {}
    digests = {}
    for doc in passes:
        for res in doc["ops"]:
            attempted += 1
            why = res.get("error") or res.get("wrong")
            if why:
                failed += 1
                reasons[res["id"]] = why
                if res.get("wrong") and res["id"] not in known:
                    correct = False
            if "digest" in res:
                digests.setdefault(res["id"], set()).add(res["digest"])
    for op_id, seen in digests.items():
        if len(seen) > 1:
            correct = False
            reasons[op_id] = "output differs between passes"
    return attempted, failed, correct, reasons


def more_passes(args, start, walls, least):
    """Start another pass while it is expected to end within --seconds, and
    always until `least` passes are done (no pass starts after HARD_LIMIT_S)."""
    now = time.monotonic() - start
    if len(walls) < least:
        return not walls or now < HARD_LIMIT_S
    return now + walls[-1] <= args.seconds


def op_times(passes, key="ms"):
    """Each op's CPU times (or wall times) over the passes, in ms."""
    op_ms = {}
    for doc in passes:
        for res in doc["ops"]:
            op_ms.setdefault(res["id"], []).append(res.get(key))
    return op_ms


def median_of(passes, key):
    return statistics.median(d[key] for d in passes)


def run_plain(args, ops, start, deadline):
    passes, walls = [], []
    while more_passes(args, start, walls, MIN_PASSES):
        t0 = time.monotonic()
        if args.workload == "cli":
            passes.append(cli_pass(args, ops, deadline))
        else:
            passes.append(worker_pass(args, deadline, 0, int(not passes)))
        walls.append(time.monotonic() - t0)
    op_ms = op_times(passes)
    if args.workload == "cli":  # the command processes and the set-up probe
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:  # the timed part of each pass worker
        rss_kb = max(d["rss_kb"] for d in passes)
    metrics = {
        "setup_s": median_of(passes, "setup_s"),
        "pass_s": median_of(passes, "pass_s"),
        "op_ms.geomean": geomean(statistics.median(v) for v in op_ms.values()),
        "peak_rss_mb": rss_kb / 1024,
    }
    extra = {
        "op_ms": op_ms,
        "op_wall_ms": op_times(passes, "wall_ms"),
        "pass_s_each": [d["pass_s"] for d in passes],
        "setup_s_each": [d["setup_s"] for d in passes],
    }
    return passes, metrics, dict(END_TO_END), extra


def run_traced(args, ops, start, deadline):
    """Untraced and traced passes in turn, plus an import probe each round."""
    plain, traced, probes, walls = [], [], [], []
    spans = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    while more_passes(args, start, walls, 2):
        t0 = time.monotonic()
        plain.append(worker_pass(args, deadline, 0, int(not plain)))
        traced.append(worker_pass(args, deadline, 1, 0, spans))
        probes.append(import_probe(deadline))
        walls.append(time.monotonic() - t0)
    counts = [tuple(d["layers"][k] for k in COUNT_METRICS) for d in traced]
    if len(set(counts)) > 1:
        print("warning: per-layer counts differ between traced passes", file=sys.stderr)
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in traced[0]["layers"]:
            vals = [d["layers"][name] for d in traced]
            metrics[name] = vals[0] if name in COUNT_METRICS else statistics.median(vals)
    metrics["cli.import_s"] = statistics.median(p[0] for p in probes)
    metrics["cli.import.sympy_s"] = statistics.median(p[1] for p in probes)
    metrics["trace.overhead_s"] = median_of(traced, "pass_s") - median_of(plain, "pass_s")
    return plain + traced, metrics, dict(LAYER_METRICS), {"spans": str(spans.relative_to(ROOT))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(battery.OPS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "microdiff" / "__init__.py").is_file():
        print(f"error: no microdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + 175
    ops = battery.OPS[args.workload](args.seed)
    body = run_traced if args.trace else run_plain
    try:
        passes, metrics, units, extra = body(args, ops, start, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    judge(ops, passes)
    attempted, failed, correct, reasons = tally(ops, passes)
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    detail = dict(doc, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=len(passes), failures=reasons, **extra)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(passes)} passes, {attempted} ops attempted, "
          f"{failed} failed, correct={correct}")
    for op_id, why in sorted(reasons.items()):
        print(f"  failed: {op_id}: {why}")
    for name, val in metrics.items():
        print(f"  {name} = {val:.6g} {units[name]}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
