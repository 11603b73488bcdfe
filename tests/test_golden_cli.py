"""Golden CLI outputs: the exit code, stdout and stderr of a fixed battery of
commands, each with and without --json, replayed through `cli.main` and
compared byte for byte with `tests/golden/cli.json`.

A change that only simplifies code must leave every case identical.
Regenerate the file only in a change that bumps a report schema:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from microdiff.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

COMMANDS = (
    ["mul", "--p", "2", "--expr", "(d1 - x1)^3"],
    ["symbol", "--p", "3", "--expr", "x1*d1^2 + 3*d1"],
    ["levelmap", "--p", "2", "--expr", "d1^2", "--mprime", "1"],
    ["psi", "--p", "2", "--expr", "Tinv(xi1,1,1)", "--m", "0", "--window-floor", "-6"],
    ["invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0", "--window-floor", "-6"],
    ["member", "--p", "2", "--P", "Tinv2(xi1,1,2)", "--m", "0", "--mprime", "1"],
    ["char", "--p", "2", "--level", "1", "--rel", "d1 - x1"],
    ["supp", "--p", "2", "--rel", "x1*d1 - 1", "--window-floor", "-6"],
    ["stability", "--p", "2", "--rel", "x1*d1 - 1", "--mprime-max", "1",
     "--window-floor", "-6"],
    ["verify-counterexample", "--p", "2", "--nmax", "8"],
    ["normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1", "--k", "4"],
    ["char", "--p", "4", "--rel", "d1 - x1"],
    ["char", "--p", "2", "--level", "-1", "--rel", "d1 - x1"],
)

CASES = [argv + extra for argv in COMMANDS for extra in ([], ["--json"])]


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert replay(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
