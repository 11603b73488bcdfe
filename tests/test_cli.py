"""CLI: grammar, command behavior, exit codes, JSON output, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microdiff
from microdiff.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    MAX_EXPONENT,
    Session,
    main,
    parse,
    parse_symbol,
)
from microdiff.diffop import DiffOp
from microdiff.errors import ExprSyntaxError, InvalidParameter
from microdiff.microloc import MicroOp
from microdiff.pseudopoly import SymbolPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parser -----------------------------------------------------------------------


class TestParser:
    def setup_method(self):
        self.s = Session(p=2)

    def test_d_minus_x(self):
        v = parse("d1 - x1", self.s)
        assert v == DiffOp.dx(2, 0) - DiffOp.x(2, 0)

    def test_divided_basis_product(self):
        # independent diffop oracle: D1[1,2]*D1[1,2] = 3*D1[1,4] at p=2
        v = parse("D1[1,2]*D1[1,2]", self.s)
        assert v == DiffOp.dx(2, 1, 4).scale(3)

    def test_powers_and_scalars(self):
        v = parse("2*d1^3 + p^2", self.s)
        w = DiffOp.dx(2, 0).__pow__(3).scale(2) + DiffOp.scalar(4, 2, 0)
        assert v == w

    def test_precedence(self):
        v = parse("x1*d1 - 1", self.s)
        assert v == DiffOp.x(2, 0) * DiffOp.dx(2, 0) - DiffOp.one(2, 0)

    def test_parentheses(self):
        v = parse("(d1 - x1)^2", self.s)
        w = DiffOp.dx(2, 0) - DiffOp.x(2, 0)
        assert v == w * w

    def test_too_deep_nesting_leaves_the_session_usable(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse("Tinv(" + "(" * 1200 + "xi1" + ")" * 1200 + ")", self.s)
        assert parse("(" * 50 + "d1" + ")" * 50, self.s) == DiffOp.dx(2, 0)

    def test_exponent_cap(self):
        assert parse(f"p^{MAX_EXPONENT}", self.s) == 2**MAX_EXPONENT
        assert parse(f"p^-{MAX_EXPONENT}", self.s) == Fraction(1, 2**MAX_EXPONENT)
        for text in (f"d1^{MAX_EXPONENT + 1}", f"p^-{MAX_EXPONENT + 1}"):
            with pytest.raises(ExprSyntaxError, match="exceeds the cap") as exc:
                parse(text, self.s)
            assert exc.value.span == (3, len(text))  # the exponent's digits

    def test_flat_sum_of_5000_terms(self):
        assert parse(" + ".join(["x1"] * 5000), self.s) == DiffOp.x(2, 0).scale(5000)

    def test_symbol_expression(self):
        theta = parse_symbol("x1*xi1^2", Session(p=3))
        assert isinstance(theta, SymbolPoly)
        assert theta.degree() == 2 and theta.is_homogeneous()

    def test_tinv_builds_microop(self):
        v = parse("Tinv(xi1, m=0)", self.s)
        assert isinstance(v, MicroOp)
        assert v.level == 0 and list(v.terms) == [((0,), 1)]

    def test_tinv_power_and_levels(self):
        v = parse("Tinv2(xi1,1,2)", self.s)
        assert v.level == 1 and v.mprime == 2
        assert list(v.terms) == [((0,), 2)]

    def test_tinv_times_operator(self):
        # trivial (construction): Tinv(xi1)*x1 is d^-1 x = x d^-1 - d^-2
        s = Session(p=2, window_floor=-6)
        v = parse("Tinv(xi1, m=0) * x1", s)
        assert isinstance(v, MicroOp)
        assert v.terms[((0,), 1)].coeffs == {(1,): 1}
        assert v.terms[((0,), 2)].coeffs == {(0,): -1}

    def test_exact_factor_keeps_the_floor(self):
        # d1^3*Tinv has order 2 and floor -6 + 3; an exact factor, known at
        # every order, leaves that floor (one lifted at floor -3 gave -1)
        s = Session(p=2, window_floor=-6)
        for text in ("2*(d1^3*Tinv(xi1,0,0))", "x1*(d1^3*Tinv(xi1,0,0))",
                     "(d1^3*Tinv(xi1,0,0))*2"):
            assert parse(text, s).floor == -3, text

    def test_window_floor_cap(self):
        with pytest.raises(InvalidParameter, match=r"^window floor -33 below -32$"):
            Session(p=2, window_floor=-33)
        assert Session(p=2, window_floor=-32).window_floor == -32

    def test_syntax_error_has_span(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("d1 + @", self.s)
        assert exc.value.span is not None

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            parse("y1 + 1", self.s)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse("d2", self.s)

    def test_mixing_symbols_and_operators_rejected(self):
        # a symbol atom in an operator expression, or an operator atom in
        # Tinv's symbol expression
        for text in ("xi1 * d1", "xi1", "Tinv(d1)", "Tinv(D1[0,1])", "Tinv(Tinv(xi1,0,0))"):
            with pytest.raises(ExprSyntaxError, match="out of place"):
                parse(text, self.s)
        with pytest.raises(ExprSyntaxError, match="out of place"):
            parse_symbol("xi1 + d1", self.s)


# -- commands ---------------------------------------------------------------------


class TestCommands:
    def test_mul_json(self, capsys):
        code, out, _ = run(
            capsys, "mul", "--p", "2", "--expr", "D1[1,2]*D1[1,2]", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["schema"] == "microdiff-report/1"
        assert data["text"] == "3*D1[1,4]"

    def test_symbol_command(self, capsys):
        code, out, _ = run(capsys, "symbol", "--p", "2", "--expr", "x1*d1 - 1", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["order"] == 1 and "xi" in data["symbol"]

    def test_char_zero_section(self, capsys):
        # oracle: Char^(0)(D/(d-x)) = zero section
        code, out, _ = run(capsys, "char", "--p", "2", "--rel", "d1 - x1", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["char_class"] == "zero-section"

    def test_char_level1_fiber(self, capsys):
        code, out, _ = run(
            capsys, "char", "--p", "2", "--level", "1", "--rel", "d1 - x1", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["char_class"] == "fiber-set" and data["fibers"] == ["x + 1"]

    def test_member_example(self, capsys):
        # oracle: the inverse localizer lies in the intermediate ring
        code, out, _ = run(
            capsys, "member", "--p", "2", "--P", "Tinv(xi1,1,2)",
            "--m", "0", "--mprime", "1", "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "InEmm'"

    def test_member_undetermined_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "member", "--p", "2", "--P", "Tinv(xi1,1,1)",
            "--m", "0", "--mprime", "1", "--window-floor", "1", "--json",
        )
        assert code == EXIT_PARTIAL
        assert json.loads(out)["status"] == "Undetermined"

    def test_invert_success(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "d1 - x1",
            "--mprime", "0", "--window-floor", "-8", "--json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["ok"] and data["bounded"]

    def test_invert_betas_are_order_beta_pairs(self, capsys):
        from microdiff.microloc import try_invert

        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "d1 - x1",
            "--mprime", "0", "--window-floor", "-6", "--json",
        )
        assert code == EXIT_OK
        P = DiffOp.dx(2, 0) - DiffOp.x(2, 0)
        betas = try_invert(P, SymbolPoly.xi(2, 0), 0, floor=-6).profile.betas
        expected = [[order, beta] for order, beta in sorted(betas.items(), reverse=True)]
        assert json.loads(out)["betas"] == expected

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mul", "--p", "2", "--expr", "d1", "--seed", "3"])
        assert exc.value.code == 2

    def test_invert_unbounded_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "D1[1,1] - x1",
            "--level", "1", "--mprime", "1", "--window-floor", "-8", "--json",
        )
        assert code == EXIT_PARTIAL
        assert not json.loads(out)["ok"]

    def test_supp_command(self, capsys):
        code, out, _ = run(
            capsys, "supp", "--p", "2", "--rel", "d1 - x1",
            "--window-floor", "-8", "--json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["crosscheck"]["agree"] is True

    def test_supp_crosschecks_only_the_module_level(self, capsys):
        # Char is computed at the module's level 0; the level-1 Char of d - x
        # has the fiber x + 1, so a level-1 support is not compared with it
        argv = ["supp", "--p", "2", "--rel", "d1 - x1", "--window-floor", "-6", "--json"]
        code, out, _ = run(capsys, *argv, "--at-levels", "1")
        assert code == EXIT_OK
        cross = json.loads(out)["crosscheck"]
        assert cross["level"] == 0 and cross["agree"] is None
        assert "not crosschecked" in cross["note"]
        code, out, _ = run(capsys, *argv, "--at-levels", "0", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["crosscheck"] == {
            "level": 0, "agree": True, "support_fibers": [], "char_fibers": [],
        }
        assert sorted(data["verdicts"]) == ["0", "1"]

    def test_supp_raised_level_keeps_the_degenerate_fiber(self, capsys):
        # at --at-levels 1 the relation is that of --level 1: phi(x d^2) =
        # 2x D^<1><2> with its content cleared, so fiber[x] stays
        argv = ["supp", "--p", "2", "--rel", "x1*d1^2", "--window-floor", "-6", "--json"]
        code, out, _ = run(capsys, *argv, "--at-levels", "0", "1")
        assert code == EXIT_PARTIAL
        raised = json.loads(out)["verdicts"]["1"]
        assert [v["chart"] for v in raised] == ["generic", "fiber[x]"]
        code, out, _ = run(capsys, *argv, "--level", "1")
        assert json.loads(out)["verdicts"]["1"] == raised

    def test_supp_without_relations_asserts_no_agreement(self, capsys):
        # no relation, no verdict: a partial answer, not a clean one
        code, out, _ = run(capsys, "supp", "--p", "2", "--rel", "d1 - d1", "--json")
        assert code == EXIT_PARTIAL
        data = json.loads(out)
        assert data["char_class"] == "whole-space"
        assert data["verdicts"] == {"0": []}
        assert data["crosscheck"]["agree"] is None
        assert data["crosscheck"]["note"] == "inconclusive: no relation to invert"

    def test_supp_non_unit_top_coefficient_persists(self, capsys):
        # (1 + x) d has a top coefficient that is no unit on the chart, so
        # try_invert refuses it and the generic verdict carries its reason
        code, out, _ = run(
            capsys, "supp", "--p", "2", "--rel", "(x1+1)*d1", "--window-floor", "-6", "--json",
        )
        assert code == EXIT_PARTIAL
        data = json.loads(out)
        assert data["verdicts"]["0"] == [
            {"chart": "generic", "verdict": "PersistsUpToWindow",
             "note": "top coefficient 1 + x is not a unit on the chart"},
            {"chart": "fiber[x + 1]", "verdict": "PersistsUpToWindow",
             "note": "leading symbol degenerates on this fiber"},
        ]
        assert data["crosscheck"]["agree"] is None

    def test_char_incomplete_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "char", "--p", "2", "--rel", "d1^2 - x1", "--max-order", "1", "--json"
        )
        assert code == EXIT_PARTIAL
        assert json.loads(out)["complete"] is False

    def test_stability_incomplete_levels_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "stability", "--p", "2", "--rel", "d1^2 - x1", "--max-order", "1",
            "--mprime-max", "1", "--json",
        )
        assert code == EXIT_PARTIAL
        assert json.loads(out)["flags"] == [0, 1]

    def test_supp_incomplete_char_exit_2(self, capsys):
        # the generic inverse is clean, but the char certificate is not, so
        # there is no crosscheck and the verdict is partial
        code, out, _ = run(
            capsys, "supp", "--p", "2", "--rel", "d1^2 - x1", "--max-order", "1", "--json"
        )
        assert code == EXIT_PARTIAL
        assert json.loads(out)["crosscheck"] is None

    def test_verify_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "verify-counterexample", "--p", "2", "--nmax", "10", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["all_ok"]

    def test_normcalc_bounds(self, capsys):
        code, out, _ = run(
            capsys, "normcalc-bounds", "--p", "2",
            "--m", "0", "--mprime", "1", "--k", "4", "--json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["a_k"] == 0 and data["b_k"] == 2

    def test_levelmap(self, capsys):
        code, out, _ = run(
            capsys, "levelmap", "--p", "2", "--expr", "d1^2", "--mprime", "1", "--json"
        )
        assert code == EXIT_OK
        assert "D1[1,2]" in json.loads(out)["text"]

    def test_psi(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--p", "2", "--expr", "Tinv(xi1,1,1)",
            "--m", "0", "--window-floor", "-8", "--json",
        )
        assert code == EXIT_OK

    def test_parse_error_exit_1(self, capsys):
        code, out, err = run(capsys, "mul", "--p", "2", "--expr", "d1 +")
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_stability_probe_command(self, capsys):
        code, out, _ = run(
            capsys, "stability", "--p", "2", "--rel", "x1*d1 - 1",
            "--mprime-max", "1", "--window-floor", "-6", "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["stable_from"] == 0


# -- bad input at the boundary ----------------------------------------------------


class TestBoundary:
    CASES = [
        ("char", "--p", "4", "--rel", "d1 - x1"),
        ("char", "--p", "1", "--rel", "d1 - x1"),
        ("char", "--p", "2", "--level", "-1", "--rel", "d1 - x1"),
        ("mul", "--p", "0", "--expr", "d1"),
        ("invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "-1"),
        ("mul", "--p", "2", "--expr", "Tinv(xi1,3,1)"),
        ("invert", "--p", "2", "--expr", "d1", "--mprime", "0", "--theta", "xi1 + 1"),
        ("invert", "--p", "2", "--expr", "d1", "--mprime", "0", "--theta", "x1"),
        ("normcalc-bounds", "--p", "2", "--m", "2", "--mprime", "1", "--k", "4"),
        ("invert", "--p", "2", "--expr", "3", "--mprime", "0"),
        ("invert", "--p", "2", "--expr", "xi1", "--mprime", "0"),
        ("verify-counterexample", "--p", "2", "--nmax", "2"),
        ("normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1", "--k", "-4"),
        ("stability", "--p", "2", "--rel", "d1 - x1", "--mprime-max", "-1"),
        ("mul", "--p", "2", "--expr", "Tinv(xi1,0,0)^2"),
        ("mul", "--p", "2", "--expr", "0^-1"),
        ("mul", "--p", "2", "--expr", "(" * 1200 + "d1" + ")" * 1200),
        ("mul", "--p", "2", "--expr=" + "-" * 3000 + "d1"),
        ("mul", "--p", "2", "--expr", "Tinv(" * 1200 + "xi1" + ")" * 1200),
        ("mul", "--p", "2", "--expr", "(d1+x1)^200"),
        ("member", "--p", "2", "--P", "3", "--m", "0", "--mprime", "1"),
        ("member", "--p", "2", "--P", "xi1", "--m", "0", "--mprime", "1"),
        ("verify-counterexample", "--p", "2", "--nmax", "100000000"),
        ("normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1", "--k", "4", "--d", "0"),
        ("normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "1", "--k", "4", "--d", "-1"),
        ("invert", "--p", "2", "--expr", "d1", "--mprime", "20"),
        ("mul", "--p", "2", "--expr", "Tinv(xi1,0,18) * d1"),
        ("normcalc-bounds", "--p", "2", "--m", "0", "--mprime", "16000", "--k", "4"),
        ("invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0", "--window-floor", "-300"),
        ("levelmap", "--p", "2", "--expr", "d1^4", "--mprime", "1000000000"),
        ("stability", "--p", "2", "--rel", "d1 - x1", "--mprime-max", "400"),
        ("invert", "--p", "2", "--expr", "d1 + Tinv(xi1,0,1)", "--mprime", "0"),
        ("supp", "--p", "2", "--level", "1", "--rel", "d1 - x1", "--at-levels", "0"),
        ("char", "--p", "2", "--level", "1", "--rel", "x1*d1 - 1", "--precision", "0"),
        ("char", "--p", "2", "--rel", "d1 - x1", "--max-order", "-1"),
    ]

    @pytest.mark.parametrize(
        "argv",
        CASES,
        ids=["p4", "p1", "level-1", "p0", "mprime-1", "tinv-level-above-mprime",
             "theta-inhomogeneous", "theta-degree-0", "normcalc-m-above-mprime",
             "invert-scalar", "invert-symbol", "nmax-below-3", "normcalc-k-negative",
             "stability-mprime-below-level", "microop-power", "zero-negative-power",
             "nested-parentheses", "nested-minus", "nested-tinv", "exponent-above-cap",
             "member-scalar", "member-symbol", "nmax-above-cap", "normcalc-d-0",
             "normcalc-d-negative", "localizer-order-above-cap",
             "tinv-localizer-order-above-cap", "normcalc-mprime-above-cap",
             "window-floor-below-cap", "levelmap-mprime-above-cap",
             "stability-mprime-above-cap", "invert-other-localizer",
             "supp-level-below-module", "precision-0", "max-order-negative"],
    )
    def test_one_error_line_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# -- random expressions through main ----------------------------------------------


ATOMS = st.sampled_from([
    "d1", "x1", "xi1", "0", "1", "2", "3", "p", "D1[1,2]",
    "Tinv(xi1,0,0)", "Tinv2(xi1,1,2)", "(d1 - x1)",
])
EXPRS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("{}^{}".format, inner, st.sampled_from([-1, 0, 1, 2, 3])),
        st.builds("Tinv({})".format, inner),
    ),
    max_leaves=4,
)
COMMANDS = [
    ("mul",),
    ("invert", "--mprime", "0", "--window-floor", "-4"),
    ("psi", "--m", "0"),
]


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @example(COMMANDS[0], 2, "Tinv(xi1,0,0)^2", "xi1")
    @example(COMMANDS[0], 2, "0^-1", "xi1")
    @example(COMMANDS[0], 2, "Tinv(Tinv(xi1,0,0))", "xi1")
    @example(COMMANDS[0], 2, "Tinv(D1[0,1])", "xi1")
    @example(COMMANDS[1], 2, "d1", "Tinv(Tinv(xi1,0,0))")
    @given(st.sampled_from(COMMANDS), st.sampled_from([2, 3]), EXPRS, EXPRS)
    def test_exit_code_without_traceback(self, command, p, expr, theta):
        argv = [command[0], "--p", str(p), "--expr", expr, *command[1:]]
        if command[0] == "invert":
            argv += ["--theta", theta]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_PARTIAL)
        assert "Traceback" not in err.getvalue()


# -- determinism ------------------------------------------------------------------


class TestDeterminism:
    CASES = [
        ("mul", "--p", "2", "--expr", "(d1 - x1)^3", "--json"),
        ("symbol", "--p", "3", "--expr", "x1*d1^2 + 3*d1", "--json"),
        ("char", "--p", "2", "--level", "1", "--rel", "d1 - x1", "--json"),
        ("member", "--p", "2", "--P", "Tinv(xi1,1,2)", "--m", "0",
         "--mprime", "1", "--json"),
        ("invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0",
         "--window-floor", "-8", "--json"),
        ("normcalc-bounds", "--p", "3", "--m", "0", "--mprime", "2",
         "--k", "9", "--json"),
        ("verify-counterexample", "--p", "2", "--nmax", "8", "--json"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_across_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_human_output_deterministic(self, capsys):
        argv = ("char", "--p", "2", "--rel", "x1*d1 - 2")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_ascii_only(self, capsys):
        for argv in self.CASES:
            _, out, _ = run(capsys, *argv)
            out.encode("ascii")


# -- config file ------------------------------------------------------------------


class TestConfig:
    def test_config_mirrors_flags(self, capsys, tmp_path):
        cfg = tmp_path / "microdiff.cfg"
        cfg.write_text("window-floor=-8\nprecision=10\n")
        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "d1 - x1",
            "--mprime", "0", "--config", str(cfg), "--json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["inverse"]["floor"] == -8
        code, out, _ = run(
            capsys, "char", "--p", "2", "--rel", "d1 - x1",
            "--config", str(cfg), "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["bounds"]["precision"] == 10
        # an explicit flag wins over the config file
        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "d1 - x1", "--mprime", "0",
            "--window-floor", "-6", "--config", str(cfg), "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["inverse"]["floor"] == -6

    def test_config_bound_is_checked(self, capsys, tmp_path):
        # a budget from the config file is refused as the flag would be
        cfg = tmp_path / "microdiff.cfg"
        cfg.write_text("precision=0\n")
        code, out, err = run(
            capsys, "char", "--p", "2", "--rel", "d1 - x1", "--config", str(cfg),
        )
        assert code == EXIT_ERROR and out == ""
        assert err == "error: bound precision 0 below 1\n"

    def test_config_switch(self, capsys, tmp_path):
        # x*d - 1 is invertible only on the punctured (Laurent) chart
        cfg = tmp_path / "microdiff.cfg"
        cfg.write_text("laurent=true\n")
        code, out, _ = run(
            capsys, "invert", "--p", "2", "--expr", "x1*d1 - 1", "--mprime", "0",
            "--config", str(cfg), "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["ok"]

    def test_unreadable_config_one_error_line(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "char", "--p", "2", "--rel", "d1 - x1",
            "--config", str(tmp_path / "missing.cfg"),
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestImport:
    def test_cli_import_loads_no_sympy(self):
        # sympy is a test oracle only; the runtime must not load it
        src = str(Path(microdiff.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import microdiff.cli, sys; assert 'sympy' not in sys.modules"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
