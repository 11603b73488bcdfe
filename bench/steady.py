"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, and print for every metric the median, the quartiles, min and max, and
the quartile spread as a share of the median.

    python3 bench/steady.py --runs 10 --seconds 55 --first-seed 101

Runs go round by round (one run of each workload per round) so slow drift of
the machine touches every workload alike.  The bounds in BENCHMARK.json come
from this output; bench/README.md records it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["support", "cli"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    import sympy

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"sympy {sympy.__version__}, {args.runs} runs of {args.seconds} s, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    values = {w: {} for w in args.workloads}
    shares = {w: set() for w in args.workloads}
    for r in range(args.runs):
        for w in args.workloads:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w,
                    "--seed", str(args.first_seed + r), "--seconds", str(args.seconds),
                    "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                sys.exit(f"{w} run {r} failed: {proc.stderr[-2000:]}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add((doc["failed"], doc["attempted"], doc["correct"]))
            for name, m in doc["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  round {r} {w}: {time.monotonic() - t0:.1f} s wall, "
                  f"pass_s {doc['metrics'].get('pass_s', {}).get('value', float('nan')):.3f}",
                  flush=True)
    report = {}
    for w in args.workloads:
        print(f"\n{w}: (failed, attempted, correct) per run: {sorted(shares[w])}")
        print(f"  {'metric':50s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'min':>11s} {'max':>11s} {'iqr/med':>8s}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            report.setdefault(w, {})[name] = dict(
                median=med, q1=q1, q3=q3, min=min(vals), max=max(vals), spread=spread,
                values=vals)
            print(f"  {name:50s} {med:11.5g} {q1:11.5g} {q3:11.5g} {min(vals):11.5g} "
                  f"{max(vals):11.5g} {spread:8.3f}")
    out = HERE / "results" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
