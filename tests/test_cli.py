import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from hermdens import cdens, verify, whit
from hermdens.beta import SOLVE_MAX_N
from hermdens.cdens import HIRONAKA_MAX_PARTS
from hermdens.cli import _decimal, main
from hermdens.errors import BudgetError, InvariantError
from hermdens.locint import ORACLE_MAX_POINTS
from hermdens.whit import DENSITY_MAX_EXP

SRC = Path(__file__).resolve().parent.parent / "src"


def run_main(args):
    """Run the command line in process: its exit code and captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # main ends in sys.exit on every path, success included
        with pytest.raises(SystemExit) as exited:
            main(args)
    return SimpleNamespace(exit_code=exited.value.code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def out_json(result):
    return json.loads(result.stdout)


class TestIntegral:
    def test_norm_unit_with_oracle(self):
        res = run_main(["integral", "--kind", "norm", "--region", "unit",
                        "--e", "-1", "--oracle", "--p", "3", "--depth", "4"])
        assert res.exit_code == 0
        doc = out_json(res)
        assert doc["value"]["str"] == "s^-1 - s^-2"
        assert doc["oracle"]["matches"] is True
        assert doc["oracle"]["value"] == "-4/9"

    def test_trace_pair_region_count(self):
        res = run_main(["integral", "--kind", "trace_pair",
                        "--region", "O", "--e", "0"])
        assert res.exit_code == 2

    def test_deterministic_output(self):
        args = ["--json", "integral", "--kind", "norm", "--region", "O", "--e", "-2"]
        a = run_main(args)
        b = run_main(args)
        assert a.stdout == b.stdout
        assert a.stdout.count("\n") == 1

    def test_trace_pair_oracle_counts_its_loops(self):
        # at most 8 x 53^3 loop iterations, though the 53^6 residue points are over locint.ORACLE_MAX_POINTS
        res = run_main(["--json", "integral", "--kind", "trace_pair", "--region", "O",
                        "--region", "unit", "--e", "-3", "--p", "53", "--oracle"])
        assert res.exit_code == 0
        assert out_json(res)["oracle"]["matches"] is True

    def test_oracle_budget_exit_code(self):
        # 1000003^2 residue points: over ORACLE_MAX_POINTS, rejected before any sum
        res = run_main(["integral", "--kind", "norm", "--region", "O", "--e", "-1",
                        "--oracle", "--p", "1000003"])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestWdens:
    def test_symbolic_anchor(self):
        res = run_main(["wdens", "--n", "1", "--h", "1", "--t", "1",
                        "--B", "diag:0,-1", "--symbolic", "--derivative"])
        doc = out_json(res)
        assert doc["value"]["str"] == "-s^-3 + 2*s^-4 - s^-5"
        assert doc["derivative"]["str"] == "-s^-4 + s^-5"

    def test_numeric_mode_with_tail(self):
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                        "--q", "3", "--emin", "-20", "--emax", "20"])
        doc = out_json(res)
        got = Fraction(doc["value"])
        assert abs(got - Fraction(16, 243)) < Fraction(1, 10 ** 9)
        assert doc["tail_report"]["value_shift"] < 1e-9

    def test_mode_exclusivity(self):
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:0,0"])
        assert res.exit_code == 2
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:0,0",
                        "--symbolic", "--q", "3"])
        assert res.exit_code == 2

    def test_rank_guard(self):
        res = run_main(["wdens", "--n", "2", "--h", "1", "--t", "1",
                        "--B", "diag:0,0,0,0", "--symbolic"])
        assert res.exit_code == 2

    def test_bad_form_literal(self):
        res = run_main(["wdens", "--h", "1", "--t", "1",
                        "--B", "nonsense", "--symbolic"])
        assert res.exit_code == 2

    def test_symbolic_budget_exit_code(self):
        res = run_main(["wdens", "--h", "0", "--t", "1",
                        "--B", "diag:0,-301", "--symbolic"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("b_text,emin", [("diag:1000,0", "-1"), ("diag:0,0", "-301")])
    def test_numeric_budget_exit_code(self, b_text, emin):
        res = run_main(["wdens", "--h", "0", "--t", "1", "--B", b_text,
                        "--q", "3", "--emin", emin, "--emax", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["4", "-3", "1", "9"])
    def test_numeric_q_not_odd_prime(self, q):
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                        "--q", q, "--emin", "-2", "--emax", "2"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["1000000000000000003"])
    def test_numeric_q_over_limit(self, q):
        # locint.PRIME_MAX is checked before any trial division and any sum
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                        "--q", q, "--emin", "-2", "--emax", "2"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["59", "2147483647"])
    def test_numeric_large_q_answers(self, q):
        # a prime over verify's q <= 53 is summed like any other
        res = run_main(["--json", "wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                        "--q", q, "--emin", "-2", "--emax", "2"])
        assert res.exit_code == 0
        assert out_json(res)["request"]["q"] == int(q)

    def test_numeric_exponent_budget_before_work(self, monkeypatch):
        # whit._density_top refuses B before any box walk
        def walked(*args):
            raise AssertionError("box walked")
        monkeypatch.setattr(whit, "_n1_tables", walked)
        t0 = time.perf_counter()
        res = run_main(["wdens", "--h", "1", "--t", "1", "--B", "diag:301,0",
                        "--q", "3", "--emin", "-2", "--emax", "2"])
        assert time.perf_counter() - t0 < 1
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "max|e| <= 300, got 301" in res.stderr


class TestBeta:
    def test_closed_top_constant(self):
        res = run_main(["beta", "--n", "2", "--h", "1", "--closed"])
        doc = out_json(res)
        assert doc["closed_matches"] is True
        assert len(doc["beta_h"]) == 2

    def test_closed_wrong_level(self):
        assert run_main(["beta", "--n", "2", "--h", "2", "--closed"]).exit_code == 2

    def test_identity_check_numeric(self):
        res = run_main(["beta", "--n", "1", "--h", "1", "--verify",
                        "--B", "diag:1,1", "--q", "3"])
        doc = out_json(res)
        assert doc["identity"]["match"] is True
        assert doc["identity"]["lhs_at_q"] == doc["identity"]["rhs_at_q"]

    def test_budget_exit_code(self):
        res = run_main(["beta", "--n", "9", "--h", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestAlpha:
    def test_coefficients_and_prime(self):
        res = run_main(["alpha", "--xi", "1,0", "--lam", "0,0", "--prime"])
        doc = out_json(res)
        assert [c["str"] for c in doc["coefficients"]] == ["1", "-1 - s^-1", "s^-1"]
        assert doc["value"]["str"] == "0"
        assert doc["prime"]["str"] == "1 - s^-1"

    def test_brute_corroboration(self):
        res = run_main(["alpha", "--xi", "1,0", "--lam", "1,0",
                        "--brute", "--q", "3", "--d", "2"])
        doc = out_json(res)
        assert doc["brute"]["matches"] is True

    def test_pad_parity(self):
        assert run_main(["alpha", "--xi", "0", "--lam", "0",
                         "--pad", "3"]).exit_code == 2

    def test_budget_exit_code(self):
        res = run_main(["alpha", "--xi", "0,0,0,0", "--lam", "0",
                        "--brute", "--q", "5", "--d", "3"])
        assert res.exit_code == 3

    def test_two_columns_within_pair_budget(self):
        # diagonal blocks join few key pairs: 405 for 390,615,696 vector pairs
        res = run_main(["--json", "alpha", "--xi", "0,0,0,0,0", "--lam", "0,0",
                        "--brute", "--q", "3", "--d", "1"])
        assert res.exit_code == 0
        assert out_json(res)["brute"]["matches"] is True

    def test_long_pad_brute_budget_exit_code(self):
        # the brute budget is checked from len(xi) + pad, so no padded tuple is built
        res = run_main(["alpha", "--xi", "0", "--lam", "0", "--pad", "10000000",
                        "--brute", "--q", "3", "--d", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_prime_check_budget_exit_code(self):
        # a p over locint.PRIME_MAX is rejected before any trial division
        res = run_main(["alpha", "--xi", "1,0", "--lam", "0,0", "--brute",
                        "--q", "1000000000000000003", "--d", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_brute_rejects_non_prime(self):
        res = run_main(["alpha", "--xi", "1,0", "--lam", "1,0",
                        "--brute", "--q", "4", "--d", "2"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "prime" in res.stderr

    @pytest.mark.parametrize("xi,lam,d", [("1,0", "1,0", "1"), ("2,2", "2,2", "2"),
                                          ("0,0", "3,2", "3"), ("0", "5", "1")])
    def test_brute_rejects_depth_before_the_count_stabilizes(self, xi, lam, d):
        # a count at d <= max(lam) is not yet the density (cdens.alpha_brute still
        # counts there: 6561 for the 2,2 row)
        res = run_main(["alpha", "--xi", xi, "--lam", lam, "--brute", "--q", "3", "--d", d])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--d above every --lam exponent" in res.stderr

    @pytest.mark.parametrize("xi,lam", [("0,0,0,0,0,0,0,0", "8,8,8,8,8,8,8,8"),
                                        ("1,1,1,1,1,1", "30,30,30"),
                                        ("0", "0,0,0,0,0,0,0,0,0,0,0,0,0")])
    def test_partition_sum_budget_exit_code(self, xi, lam):
        # cdens.HIRONAKA_MAX_STEPS (3,720 and 3,408 walk steps) and HIRONAKA_MAX_PARTS
        res = run_main(["alpha", "--xi", xi, "--lam", lam, "--prime"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_brute_rejects_depth_below_one(self, d):
        res = run_main(["alpha", "--xi", "1,0", "--lam", "0,0",
                        "--brute", "--q", "3", "--d", d])
        assert res.exit_code == 2
        assert res.stdout == ""


class TestJfunAndAppendix:
    def test_assembled_constant(self):
        res = run_main(["jfun", "--t", "1", "--B", "diag:2,0"])
        assert out_json(res)["value"]["str"] == "2"

    def test_appendix_identity(self):
        res = run_main(["appendix", "--n", "1", "--B1", "2,0"])
        doc = out_json(res)
        assert doc["match"] is True
        assert doc["lhs"] == doc["rhs"]

    @pytest.mark.parametrize("n,b1", [("12", "3,3,3,3,3,3,3,3,3,3,3,3,3"),
                                      ("8", "6,6,6,6,6,6,6,6,6")])
    def test_appendix_budget_exit_code(self, n, b1):
        # beta.SOLVE_MAX_N, then the partition sum budget of its densities
        res = run_main(["appendix", "--n", n, "--B1", b1])
        assert res.exit_code == 3
        assert res.stdout == ""


    def test_appendix_over_solve_limit_before_partition_sums(self, monkeypatch):
        sums = []
        monkeypatch.setattr(cdens, "hironaka_coeffs", lambda *args: sums.append(args))
        res = run_main(["appendix", "--n", "9", "--B1", "0,0,0,0,0,0,0,0,0,0"])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert f"n <= {SOLVE_MAX_N}, got n=9" in res.stderr
        assert sums == []

    @pytest.mark.parametrize("n,b1", [("0", "0"), ("-1", "0,0")])
    def test_appendix_rejects_n_below_one(self, n, b1):
        # the message names n only: appendix has no h option
        res = run_main(["appendix", "--n", n, f"--B1={b1}"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"got n={n}" in res.stderr and "h=" not in res.stderr


class TestTree:
    def test_overlapping_case(self):
        res = run_main(["tree", "--q", "3", "--mx", "3", "--my", "2", "--d", "1"])
        doc = out_json(res)
        assert doc["case"] == 3
        assert doc["intersection"] == "3"
        assert doc["r"] == 2

    def test_bucket_components(self):
        res = run_main(["tree", "--q", "3", "--mx", "9", "--my", "7",
                        "--d", "8", "--per-f"])
        doc = out_json(res)
        assert doc["f_components"] == {"-1": "0", "0": "3", "1": "-3", "2": "4", "3": "0"}

    def test_bucket_shape_guard(self):
        res = run_main(["tree", "--q", "3", "--mx", "2", "--my", "2",
                        "--d", "0", "--per-f"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [["--q", "3", "--mx", "100000", "--my", "100000", "--d", "2"],
                                      ["--q", "3", "--mx", "501", "--my", "1", "--d", "500"],
                                      ["--q", str(2 ** 31 + 1), "--mx", "3", "--my", "2", "--d", "1"]])
    def test_budget_exit_code(self, args):
        res = run_main(["tree", *args])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_engulfed_needs_vdet(self):
        res = run_main(["tree", "--q", "3", "--mx", "6", "--my", "1",
                        "--d", "1", "--vdet", "10"])
        doc = out_json(res)
        assert doc["case"] == 1
        assert doc["intersection"] == "6"


class TestVerifyCommand:
    def test_suite_pass(self):
        res = run_main(["verify", "--suite", "jfun-h0"])
        assert res.exit_code == 0
        assert "0 failed" in res.stdout

    def test_json_report_fields(self):
        res = run_main(["--json", "verify", "--suite", "jfun-assembly"])
        doc = out_json(res)
        assert doc["suite"] == "jfun-assembly"
        assert doc["failed"] == 0
        for c in doc["checks"]:
            assert set(c) == {"id", "anchor", "status", "lhs", "rhs", "elapsed"}

    def test_unknown_suite(self):
        assert run_main(["verify", "--suite", "nope"]).exit_code == 2

    def test_former_alias_rejected(self):
        res = run_main(["verify", "--suite", "lemma3_8"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["1", "4", "9"])
    def test_q_not_odd_prime(self, q, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "jfun-h0", lambda rec, q: ran.append(q))
        res = run_main(["verify", "--suite", "jfun-h0", "--q", q])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert ran == []

    @pytest.mark.parametrize("q", ["59", "1000000000000000003"])
    def test_q_over_limit(self, q, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "jfun-h0", lambda rec, q: ran.append(q))
        res = run_main(["verify", "--suite", "jfun-h0", "--q", q])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert ran == []

    def test_max_q_within_oracle_budget(self):
        # above q = 5 the integrals suite reaches e = -2, that is q^4 residue points
        assert verify.VERIFY_MAX_Q ** 4 <= ORACLE_MAX_POINTS

    def test_failing_suite_exits_one(self, monkeypatch):
        def failing(rec, q):
            rec.equal("forced", "test/forced", lambda: (1, 2))
        monkeypatch.setitem(verify.SUITES, "jfun-h0", failing)
        res = run_main(["verify", "--suite", "jfun-h0"])
        assert res.exit_code == 1
        assert "[fail]" in res.stdout
        assert "internal error" not in res.stderr

    def test_check_error_recorded_as_failure(self, monkeypatch):
        def raising(rec, q):
            def over_budget():
                raise BudgetError("too many pairs")
            def broken():
                raise InvariantError("tail is not geometric")
                yield
            rec.equal("over-budget", "test/errors", over_budget)
            rec.sweep("broken", "test/errors", broken())
            rec.equal("after", "test/errors", lambda: (1, 1))
        monkeypatch.setitem(verify.SUITES, "jfun-h0", raising)
        res = run_main(["--json", "verify", "--suite", "jfun-h0"])
        assert res.exit_code == 1
        assert "internal error" not in res.stderr
        doc = out_json(res)
        assert (doc["passed"], doc["failed"]) == (1, 2)
        status = {c["id"]: (c["status"], c["lhs"]) for c in doc["checks"]}
        assert status["over-budget"] == ("fail", "BudgetError: too many pairs")
        assert status["broken"] == ("fail", "InvariantError: tail is not geometric")
        assert status["after"][0] == "pass"

    def test_any_error_fails_only_its_check(self, monkeypatch):
        def bent(*args):
            raise ValueError("bent")
        monkeypatch.setattr(verify, "alpha_iwahori_brute", bent)
        report = verify.run_suite("alpha-duality")
        status = {c["id"]: (c["status"], c["lhs"]) for c in report["checks"]}
        assert status["stabilizer-brute-spot[p=3,d=2]"] == ("fail", "ValueError: bent")
        assert (report["passed"], report["failed"]) == (3, 1)
        res = run_main(["verify", "--suite", "alpha-duality"])
        assert res.exit_code == 1
        assert "[fail]" in res.stdout
        assert "invalid request" not in res.stderr and "internal error" not in res.stderr

    def test_setup_error_fails_checks_only(self, monkeypatch):
        # every gram-duality check computes gram_fingerprint; none may abort the run
        def broken(Y, B):
            raise InvariantError("gram product broken")
        monkeypatch.setattr(verify, "gram_fingerprint", broken)
        res = run_main(["--json", "verify", "--suite", "gram-duality"])
        assert res.exit_code == 1
        assert "internal error" not in res.stderr
        doc = out_json(res)
        assert [c["id"] for c in doc["checks"]] == [
            "pairing-swap-n1[h=0]", "pairing-swap-n1[h=1]", "pairing-swap-n1[h=2]",
            "pairing-swap-n2[sampled]", "pairing-swap-n3[random-100]"]
        assert (doc["passed"], doc["failed"]) == (0, 5)
        for c in doc["checks"]:
            assert c["lhs"] == "InvariantError: gram product broken"

    def test_brute_spot_within_budget_at_q5(self):
        # the rank-2 spot joins 4,375 key pairs at p = 5, so every q counts the same target
        res = run_main(["--json", "verify", "--suite", "partition-sums", "--q", "5"])
        assert res.exit_code == 0
        status = {c["id"]: c["status"] for c in out_json(res)["checks"]}
        assert status["brute-spot[p=5,d=2]"] == "pass"


class TestGlobalOptions:
    def test_only_json_and_decimal(self, tmp_path, monkeypatch):
        # --json and --decimal are the only settings; no file or environment variable sets them
        for removed in (["--cache", str(tmp_path / "c.jsonl")],
                        ["--config", str(tmp_path / "conf")],
                        ["--jobs", "2"]):
            res = run_main([*removed, "jfun", "--t", "1", "--B", "diag:0,0"])
            assert res.exit_code == 2
            assert res.stdout == ""
        args = ["--json", "jfun", "--t", "1", "--B", "diag:0,0"]
        plain = run_main(args)
        conf = tmp_path / "conf"
        conf.write_text("decimal=3\n")
        monkeypatch.setenv("HERMDENS_CONFIG", str(conf))
        res = run_main(args)
        assert res.exit_code == 0
        assert res.stdout == plain.stdout


class TestArgumentParsing:
    @pytest.mark.parametrize("args", [
        ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1", "--sym"],  # option prefix
        ["--js", "jfun", "--t", "1", "--B", "diag:0,0"],
        ["jfun", "--t", "1", "--B", "diag:0,0", "--json"],  # global option after the command
        [],
        ["--json"],
        ["--decimal", "-1", "jfun", "--t", "1", "--B", "diag:0,0"],
        ["alpha", "--xi", "-1,0", "--lam", "0"],
        ["integral", "--kind", "norm", "--region", "units", "--e", "0"],
        ["tree", "--q", "three", "--mx", "3", "--my", "2", "--d", "1"],
    ])
    def test_usage_errors_exit_two(self, args):
        res = run_main(args)
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_region_repeats(self):
        res = run_main(["integral", "--kind", "trace_pair", "--region", "O",
                        "--region", "unit", "--e", "2"])
        assert res.exit_code == 0
        assert out_json(res)["request"]["regions"] == ["O", "O_unit"]

    @pytest.mark.parametrize("args", [
        ["--decimal", "4", "integral", "--kind", "norm", "--region", "O", "--e", "-100000000000"],
        ["--decimal", "4", "alpha", "--xi", "0", "--lam", "0", "--pad", "100000000"],
        ["--decimal", "4", "wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1",
         "--symbolic", "--r", "100000000"],
    ])
    def test_decimal_evaluation_budget(self, args):
        # symb.EVAL_MAX_BITS is checked before any power of q is built
        t0 = time.perf_counter()
        res = run_main(args)
        assert time.perf_counter() - t0 < 2
        assert res.exit_code == 3
        assert res.stdout == ""
        assert "evaluation limited" in res.stderr

    @pytest.mark.parametrize("args,message", [
        # numeric terms at s = -q go through the same bit budget as evaluate
        (["wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1", "--q", "3",
          "--emin", "-3", "--emax", "3", "--r", "100000"], "evaluation limited"),
        # the smallest r refused at max|e| = 300
        (["wdens", "--B", "diag:300,300", "--h", "0", "--t", "1", "--symbolic", "--derivative",
          "--r", "2"], "min(r, max|e|) <= 300, got 600"),
        # the dual form diag:301,299 is over the exponent budget
        (["beta", "--n", "1", "--h", "1", "--verify", "--B", "diag:300,300", "--q", "53"],
         "max|e| <= 300, got 301"),
        # the largest numeric term, read from the axis tables before the box walk
        (["wdens", "--B", "diag:300,300", "--h", "0", "--t", "1", "--q", "3", "--emin", "-300",
          "--emax", "300", "--r", "1000"], "evaluation limited"),
    ])
    def test_density_budget_before_work(self, args, message, monkeypatch):
        def walked(*args):
            raise AssertionError("box walked")
        monkeypatch.setattr(whit, "_box", walked)
        t0 = time.perf_counter()
        res = run_main(args)
        assert time.perf_counter() - t0 < 2
        assert res.exit_code == 3
        assert res.stdout == ""
        assert message in res.stderr


# each exits 3: a value at q = 53 outside the float range (the tail report,
# the tail report again, --decimal), an integer of over 4300 digits in the
# intersection number, and in the exponents of the symbolic density
OVERSIZED = (
    ["wdens", "--B", "diag:200,300", "--h", "0", "--t", "0", "--q", "53", "--emin", "0",
     "--emax", "0"],
    ["wdens", "--B", "diag:300,300", "--h", "0", "--t", "1", "--q", "53", "--emin", "0",
     "--emax", "20"],
    ["--decimal", "4", "wdens", "--B", "diag:200,300", "--h", "0", "--t", "1", "--q", "53",
     "--emin", "0", "--emax", "20", "--derivative"],
    ["tree", "--q", "2147483647", "--mx", "500", "--my", "500", "--d", "0"],
    ["wdens", "--B", "diag:0,-1", "--h", "1", "--t", "1", "--symbolic", "--r", "9" * 4300],
)


class TestOversizedValues:
    @pytest.mark.parametrize("args", OVERSIZED, ids=["tail-value", "tail-derivative",
                                                     "decimal", "tree-digits", "exponent-digits"])
    def test_exit_three(self, args):
        res = run_main(args)
        assert res.exit_code == 3, res.stderr
        assert res.stdout == ""
        assert "float range" in res.stderr or "4300 digits" in res.stderr

    def test_longest_integers_still_print(self):
        # 4300 digits print; the refusal starts at 10^4300
        from hermdens.cli import to_doc

        assert to_doc([10 ** 4300 - 1, Fraction(1, 10 ** 4300 - 1)])[0] == 10 ** 4300 - 1
        for big in (10 ** 4300, -10 ** 4300, Fraction(1, 10 ** 4300)):
            with pytest.raises(BudgetError, match="4300 digits"):
                to_doc({"value": big})


# 16/243, the density of diag:1,0 at h = 0, t = 1 and q = 3
SIXTEEN_243 = "0.06584362139917695473251028806584362139918"


class TestDecimalDigits:
    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40), st.integers(-40, 40),
           st.integers(1, 60))
    def test_digits_equal_decimal_division(self, num, den, shift, k):
        x = Fraction(num, den) * Fraction(10) ** shift
        ctx = decimal.Context(prec=k, rounding=decimal.ROUND_HALF_EVEN, Emin=-10 ** 6,
                              Emax=10 ** 6)
        assert decimal.Decimal(_decimal(x, k)) == ctx.divide(num * 10 ** max(shift, 0),
                                                             den * 10 ** max(-shift, 0))

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 30))
    def test_layout_of_float_g_format(self, f, k):
        # a float is an exact binary fraction, and format rounds it correctly; -0.0 is 0
        assert _decimal(Fraction(f), k) == ("0" if f == 0 else format(f, f".{k}g"))

    @pytest.mark.parametrize("k,want", [("40", SIXTEEN_243), ("1", "0.07"),
                                        ("17", "0.065843621399176955"),
                                        ("18", "0.0658436213991769547")])
    def test_sixteen_over_243(self, k, want):
        res = run_main(["--decimal", k, "wdens", "--h", "0", "--t", "1", "--B", "diag:1,0",
                        "--symbolic"])
        assert res.exit_code == 0
        assert out_json(res)["decimal"]["value"] == want

    def test_digit_bound(self):
        args = ["wdens", "--h", "0", "--t", "1", "--B", "diag:1,0", "--symbolic"]
        res = run_main(["--decimal", "4300", *args])
        assert res.exit_code == 0
        got = out_json(res)["decimal"]["value"]
        assert got.startswith(SIXTEEN_243[:-1]) and len(got) == 4300 + 3
        for k in ("4301", "99999999999"):
            res = run_main(["--decimal", k, *args])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert "--decimal takes K from 0 to 4300" in res.stderr


def run_child(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


# exponents at and around the density budget's edges, or anywhere inside it
_EXPS = st.one_of(st.sampled_from((0, 1, -1, DENSITY_MAX_EXP, -DENSITY_MAX_EXP,
                                   DENSITY_MAX_EXP + 1, -DENSITY_MAX_EXP - 1)),
                  st.integers(-DENSITY_MAX_EXP, DENSITY_MAX_EXP))
# --r and window ends: small values and powers of ten, the window budget (300) between them
_LEVELS = st.sampled_from((0, 1, 2, 10, 100, 1000, 10 ** 6, 10 ** 12))


@st.composite
def _wdens_requests(draw):
    """A wdens command line: symbolic or numeric, a diag or antidiagonal mono form."""
    if draw(st.booleans()):
        form = f"diag:{draw(_EXPS)},{draw(_EXPS)}"
    else:
        e = draw(_EXPS)
        form = f"mono:sigma=[2,1];e=[{e},{e}]"
    args = ["--decimal", "4"] if draw(st.booleans()) else []
    args += ["wdens", "--h", str(draw(st.integers(0, 2))), "--t", str(draw(st.integers(0, 1))),
             "--B", form, "--r", str(draw(_LEVELS))]
    if draw(st.booleans()):
        args.append("--symbolic")
    elif draw(st.booleans()):
        # short windows at the largest prime, where values leave the float range
        args += ["--q", "53", "--emin", str(-draw(st.integers(0, 20))),
                 "--emax", str(draw(st.integers(0, 20)))]
    else:
        args += ["--q", str(draw(st.sampled_from((3, 4, 53, 59)))),
                 "--emin", str(-draw(_LEVELS)), "--emax", str(draw(_LEVELS))]
    if draw(st.booleans()):
        args.append("--derivative")
    return args


# radii and distance around the tree budget (500), q around 2^31 and at 2, 3
_TREE_SIZES = st.sampled_from((0, 1, 499, 500, 501))


@st.composite
def _tree_requests(draw):
    q = draw(st.sampled_from((2, 3, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1)))
    return ["tree", "--q", str(q), "--mx", str(draw(_TREE_SIZES)),
            "--my", str(draw(_TREE_SIZES)), "--d", str(draw(_TREE_SIZES))]


def _levels(*edges):
    """Small integers, +-10^k, and a command's budget edges."""
    return st.sampled_from((0, 1, -1, 2, 10 ** 6, -10 ** 6, 10 ** 12, *edges))


def _with_decimal(draw, args):
    return ["--decimal", "4", *args] if draw(st.booleans()) else args


def _exponents(draw, size):
    """A diagonal: size exponents, mostly small and sorted decreasing."""
    exps = sorted((draw(st.sampled_from((0, 0, 1, 2, 3, 6, -1, 10 ** 6))) for _ in range(size)),
                  reverse=draw(st.integers(0, 3)) > 0)
    return ",".join(map(str, exps))


@st.composite
def _integral_requests(draw):
    kind, regions = draw(st.sampled_from((("norm", 1), ("trace_pair", 2), ("trace_j1", 0))))
    args = ["integral", "--kind", kind, "--e", str(draw(_levels(-3, 3)))]
    for _ in range(regions):
        args += ["--region", draw(st.sampled_from(("O", "unit", "pi")))]
    if draw(st.booleans()):
        # 53^4 residue points are in the oracle's budget, 53^6 are not
        args += ["--oracle", "--p", str(draw(st.sampled_from((3, 5, 53, 2 ** 31 - 1)))),
                 "--depth", str(draw(_levels(4, 5)))]
    return _with_decimal(draw, args)


@st.composite
def _alpha_requests(draw):
    # --xi=... so that a negative exponent reaches the library, not the option parser
    args = ["alpha", f"--xi={_exponents(draw, draw(st.integers(0, 3)))}",
            f"--lam={_exponents(draw, draw(st.integers(1, HIRONAKA_MAX_PARTS + 1)))}",
            "--pad", str(draw(_levels(3)))]
    if draw(st.booleans()):
        args.append("--prime")
    if draw(st.booleans()):
        args += ["--brute", "--q", str(draw(st.sampled_from((3, 5, 9)))),
                 "--d", str(draw(_levels(3)))]
    return _with_decimal(draw, args)


@st.composite
def _jfun_requests(draw):
    return _with_decimal(draw, ["jfun", "--t", str(draw(_levels())),
                                "--B", f"diag:{draw(_EXPS)},{draw(_EXPS)}"])


@st.composite
def _beta_requests(draw):
    n = draw(_levels(SOLVE_MAX_N, SOLVE_MAX_N + 1))
    args = ["beta", "--n", str(n), "--h", str(draw(_levels(n - 1, 2 * n, 2 * n + 1)))]
    if draw(st.booleans()):
        args.append("--closed")
    if draw(st.booleans()):
        args += ["--verify", "--B", f"diag:{draw(_EXPS)},{draw(_EXPS)}",
                 "--q", str(draw(_levels(3, 53)))]
    return args


@st.composite
def _appendix_requests(draw):
    n = draw(_levels(SOLVE_MAX_N, SOLVE_MAX_N + 1))
    return ["appendix", "--n", str(n), f"--B1={_exponents(draw, min(abs(n), 10) + 1)}"]


@st.composite
def _verify_requests(draw):
    """A verify command line: a known or unknown suite name, q around verify.VERIFY_MAX_Q."""
    suite = draw(st.sampled_from((*verify.suite_names(), "al", "census", "")))
    if suite in ("integrals", "all"):
        # their character-sum oracle grows as q^4: --q 53 takes 8.3 s
        q = draw(st.sampled_from((0, 1, 2, 3, 4, 5, 7)))
    else:
        q = draw(st.sampled_from((0, 1, 2, 3, 4, 9, 51, 53, 55, 59, 10 ** 6, 10 ** 12)))
    return ["--json", "verify", "--suite", suite, "--q", str(q)]


def _ends_in_answer_or_refusal(args):
    # in its own process, so a hang or a crash cannot hide
    done = run_child("-m", "hermdens.cli", *args, timeout=10)
    assert done.returncode in (0, 2, 3), (args, done.stderr)
    assert "Traceback" not in done.stderr and "internal error" not in done.stderr, args
    # Python's own int-to-str limit is not a bad request
    assert "Exceeds the limit" not in done.stderr, args
    if done.returncode == 0:
        json.loads(done.stdout)


class TestContractSample:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_wdens_requests())
    @example(OVERSIZED[0])
    @example(OVERSIZED[1])
    @example(OVERSIZED[2])
    @example(OVERSIZED[4])
    def test_wdens_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_tree_requests())
    @example(OVERSIZED[3])
    def test_tree_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_integral_requests())
    def test_integral_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_alpha_requests())
    @example(["--decimal", "0", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", "1", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", "17", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", "18", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", "4300", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", "4301", "alpha", "--xi", "0", "--lam", "1"])
    @example(["--decimal", str(10 ** 11), "alpha", "--xi", "0", "--lam", "1"])
    def test_alpha_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_jfun_requests())
    def test_jfun_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_beta_requests())
    def test_beta_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_appendix_requests())
    def test_appendix_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)

    # exit 1 would be a failing identity, not a refusal
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(_verify_requests())
    @example(["--json", "verify", "--suite", "all", "--q", "7"])
    @example(["--json", "verify", "--suite", "count-bridge", "--q", "53"])
    @example(["--json", "verify", "--suite", "gram-duality", "--q", "55"])
    def test_verify_ends_in_answer_or_refusal(self, args):
        _ends_in_answer_or_refusal(args)


class TestStartup:
    def test_import_skips_click_dataclasses_inspect(self):
        done = run_child("-c", "import sys; before = set(sys.modules); "
                               "import hermdens.cli, hermdens.verify; "
                               "print(sorted({'click', 'dataclasses', 'inspect'} "
                               "& (set(sys.modules) - before)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_formless_commands_skip_reps(self):
        code = ("import contextlib, io, sys\n"
                "from hermdens.cli import main\n"
                "for args in (['integral', '--kind', 'norm', '--region', 'O', '--e', '-1'],\n"
                "             ['tree', '--q', '3', '--mx', '3', '--my', '2', '--d', '1'],\n"
                "             ['beta', '--n', '2', '--h', '1', '--closed']):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        try:\n"
                "            main(args)\n"
                "        except SystemExit as exc:\n"
                "            assert exc.code == 0, args\n"
                "print('hermdens.reps' in sys.modules)\n")
        done = run_child("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_version_under_dash_m(self):
        done = run_child("-m", "hermdens.cli", "--version")
        assert done.returncode == 0
        assert done.stdout == "python -m hermdens.cli, version 0.1.0\n"
