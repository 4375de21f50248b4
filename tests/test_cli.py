import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hermdens import verify
from hermdens.cli import main
from hermdens.errors import BudgetError, InvariantError
from hermdens.locint import ORACLE_MAX_POINTS


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def out_json(result):
    return json.loads(result.stdout)


class TestIntegral:
    def test_norm_unit_with_oracle(self, runner):
        res = invoke(runner, ["integral", "--kind", "norm", "--region", "unit",
                              "--e", "-1", "--oracle", "--p", "3", "--depth", "4"])
        assert res.exit_code == 0
        doc = out_json(res)
        assert doc["value"]["str"] == "s^-1 - s^-2"
        assert doc["oracle"]["matches"] is True
        assert doc["oracle"]["value"] == "-4/9"

    def test_trace_pair_region_count(self, runner):
        res = invoke(runner, ["integral", "--kind", "trace_pair",
                              "--region", "O", "--e", "0"])
        assert res.exit_code == 2

    def test_deterministic_output(self, runner):
        args = ["--json", "integral", "--kind", "norm", "--region", "O", "--e", "-2"]
        a = invoke(runner, args)
        b = invoke(runner, args)
        assert a.stdout == b.stdout
        assert a.stdout.count("\n") == 1

    def test_oracle_budget_exit_code(self, runner):
        # 1000003^2 residue points: over ORACLE_MAX_POINTS, rejected before any sum
        res = invoke(runner, ["integral", "--kind", "norm", "--region", "O", "--e", "-1",
                              "--oracle", "--p", "1000003"])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestWdens:
    def test_symbolic_anchor(self, runner):
        res = invoke(runner, ["wdens", "--n", "1", "--h", "1", "--t", "1",
                              "--B", "diag:0,-1", "--symbolic", "--derivative"])
        doc = out_json(res)
        assert doc["value"]["str"] == "-s^-3 + 2*s^-4 - s^-5"
        assert doc["derivative"]["str"] == "-s^-4 + s^-5"

    def test_numeric_mode_with_tail(self, runner):
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                              "--q", "3", "--emin", "-20", "--emax", "20"])
        doc = out_json(res)
        got = Fraction(doc["value"])
        assert abs(got - Fraction(16, 243)) < Fraction(1, 10 ** 9)
        assert doc["tail_report"]["value_shift"] < 1e-9

    def test_mode_exclusivity(self, runner):
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,0"])
        assert res.exit_code == 2
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,0",
                              "--symbolic", "--q", "3"])
        assert res.exit_code == 2

    def test_rank_guard(self, runner):
        res = invoke(runner, ["wdens", "--n", "2", "--h", "1", "--t", "1",
                              "--B", "diag:0,0,0,0", "--symbolic"])
        assert res.exit_code == 2

    def test_bad_form_literal(self, runner):
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1",
                              "--B", "nonsense", "--symbolic"])
        assert res.exit_code == 2

    def test_symbolic_budget_exit_code(self, runner):
        res = invoke(runner, ["wdens", "--h", "0", "--t", "1",
                              "--B", "diag:0,-301", "--symbolic"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("b_text,emin", [("diag:1000,0", "-1"), ("diag:0,0", "-301")])
    def test_numeric_budget_exit_code(self, runner, b_text, emin):
        res = invoke(runner, ["wdens", "--h", "0", "--t", "1", "--B", b_text,
                              "--q", "3", "--emin", emin, "--emax", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["4", "-3", "1", "9"])
    def test_numeric_q_not_odd_prime(self, runner, q):
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                              "--q", q, "--emin", "-2", "--emax", "2"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["59", "1000000000000000003"])
    def test_numeric_q_over_limit(self, runner, q):
        # whit.NUMERIC_MAX_Q is checked before the prime check and any sum
        res = invoke(runner, ["wdens", "--h", "1", "--t", "1", "--B", "diag:0,-1",
                              "--q", q, "--emin", "-2", "--emax", "2"])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestBeta:
    def test_closed_top_constant(self, runner):
        res = invoke(runner, ["beta", "--n", "2", "--h", "1", "--closed"])
        doc = out_json(res)
        assert doc["closed_matches"] is True
        assert len(doc["beta_h"]) == 2

    def test_closed_wrong_level(self, runner):
        assert invoke(runner, ["beta", "--n", "2", "--h", "2", "--closed"]).exit_code == 2

    def test_identity_check_numeric(self, runner):
        res = invoke(runner, ["beta", "--n", "1", "--h", "1", "--verify",
                              "--B", "diag:1,1", "--q", "3"])
        doc = out_json(res)
        assert doc["identity"]["match"] is True
        assert doc["identity"]["lhs_at_q"] == doc["identity"]["rhs_at_q"]

    def test_budget_exit_code(self, runner):
        res = invoke(runner, ["beta", "--n", "9", "--h", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestAlpha:
    def test_coefficients_and_prime(self, runner):
        res = invoke(runner, ["alpha", "--xi", "1,0", "--lam", "0,0", "--prime"])
        doc = out_json(res)
        assert [c["str"] for c in doc["coefficients"]] == ["1", "-1 - s^-1", "s^-1"]
        assert doc["value"]["str"] == "0"
        assert doc["prime"]["str"] == "1 - s^-1"

    def test_brute_corroboration(self, runner):
        res = invoke(runner, ["alpha", "--xi", "1,0", "--lam", "1,0",
                              "--brute", "--q", "3", "--d", "2"])
        doc = out_json(res)
        assert doc["brute"]["matches"] is True

    def test_pad_parity(self, runner):
        assert invoke(runner, ["alpha", "--xi", "0", "--lam", "0",
                               "--pad", "3"]).exit_code == 2

    def test_budget_exit_code(self, runner):
        res = invoke(runner, ["alpha", "--xi", "0,0,0,0", "--lam", "0",
                              "--brute", "--q", "5", "--d", "3"])
        assert res.exit_code == 3

    def test_pair_budget_exit_code(self, runner):
        res = invoke(runner, ["alpha", "--xi", "2,2", "--lam", "2,2",
                              "--brute", "--q", "3", "--d", "2"])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_prime_check_budget_exit_code(self, runner):
        # a p over locint.PRIME_MAX is rejected before any trial division
        res = invoke(runner, ["alpha", "--xi", "1,0", "--lam", "0,0", "--brute",
                              "--q", "1000000000000000003", "--d", "1"])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_brute_rejects_non_prime(self, runner):
        res = invoke(runner, ["alpha", "--xi", "1,0", "--lam", "1,0",
                              "--brute", "--q", "4", "--d", "1"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("xi,lam", [("0,0,0,0,0,0,0,0", "8,8,8,8,8,8,8,8"),
                                        ("1,1,1,1,1,1", "30,30,30"),
                                        ("0", "0,0,0,0,0,0,0,0,0,0,0,0,0")])
    def test_partition_sum_budget_exit_code(self, runner, xi, lam):
        # cdens.HIRONAKA_MAX_TERMS / HIRONAKA_MAX_PARTS, checked before any expansion
        res = invoke(runner, ["alpha", "--xi", xi, "--lam", lam, "--prime"])
        assert res.exit_code == 3
        assert res.stdout == ""

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_brute_rejects_depth_below_one(self, runner, d):
        res = invoke(runner, ["alpha", "--xi", "1,0", "--lam", "0,0",
                              "--brute", "--q", "3", "--d", d])
        assert res.exit_code == 2
        assert res.stdout == ""


class TestJfunAndAppendix:
    def test_assembled_constant(self, runner):
        res = invoke(runner, ["jfun", "--t", "1", "--B", "diag:2,0"])
        assert out_json(res)["value"]["str"] == "2"

    def test_appendix_identity(self, runner):
        res = invoke(runner, ["appendix", "--n", "1", "--B1", "2,0"])
        doc = out_json(res)
        assert doc["match"] is True
        assert doc["lhs"] == doc["rhs"]

    @pytest.mark.parametrize("n,b1", [("12", "3,3,3,3,3,3,3,3,3,3,3,3,3"),
                                      ("8", "6,6,6,6,6,6,6,6,6")])
    def test_appendix_budget_exit_code(self, runner, n, b1):
        # cdens.APPENDIX_MAX_N, then the partition sum budget of its densities
        res = invoke(runner, ["appendix", "--n", n, "--B1", b1])
        assert res.exit_code == 3
        assert res.stdout == ""


class TestTree:
    def test_overlapping_case(self, runner):
        res = invoke(runner, ["tree", "--q", "3", "--mx", "3", "--my", "2", "--d", "1"])
        doc = out_json(res)
        assert doc["case"] == 3
        assert doc["intersection"] == "3"
        assert doc["r"] == 2

    def test_bucket_components(self, runner):
        res = invoke(runner, ["tree", "--q", "3", "--mx", "9", "--my", "7",
                              "--d", "8", "--per-f"])
        doc = out_json(res)
        assert doc["f_components"] == {"-1": "0", "0": "3", "1": "-3", "2": "4", "3": "0"}

    def test_bucket_shape_guard(self, runner):
        res = invoke(runner, ["tree", "--q", "3", "--mx", "2", "--my", "2",
                              "--d", "0", "--per-f"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [["--q", "3", "--mx", "100000", "--my", "100000", "--d", "2"],
                                      ["--q", "3", "--mx", "501", "--my", "1", "--d", "500"],
                                      ["--q", str(2 ** 31 + 1), "--mx", "3", "--my", "2", "--d", "1"]])
    def test_budget_exit_code(self, runner, args):
        res = invoke(runner, ["tree", *args])
        assert res.exit_code == 3
        assert res.stdout == ""

    def test_engulfed_needs_vdet(self, runner):
        res = invoke(runner, ["tree", "--q", "3", "--mx", "6", "--my", "1",
                              "--d", "1", "--vdet", "10"])
        doc = out_json(res)
        assert doc["case"] == 1
        assert doc["intersection"] == "6"


class TestVerifyCommand:
    def test_suite_pass(self, runner):
        res = invoke(runner, ["verify", "--suite", "jfun-h0"])
        assert res.exit_code == 0
        assert "0 failed" in res.stdout

    def test_json_report_fields(self, runner):
        res = invoke(runner, ["--json", "verify", "--suite", "jfun-assembly"])
        doc = out_json(res)
        assert doc["suite"] == "jfun-assembly"
        assert doc["failed"] == 0
        for c in doc["checks"]:
            assert set(c) == {"id", "anchor", "status", "lhs", "rhs", "elapsed"}

    def test_unknown_suite(self, runner):
        assert invoke(runner, ["verify", "--suite", "nope"]).exit_code == 2

    def test_former_alias_rejected(self, runner):
        res = invoke(runner, ["verify", "--suite", "lemma3_8"])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("q", ["1", "4", "9"])
    def test_q_not_odd_prime(self, runner, q, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "jfun-h0", lambda rec, q: ran.append(q))
        res = invoke(runner, ["verify", "--suite", "jfun-h0", "--q", q])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert ran == []

    @pytest.mark.parametrize("q", ["59", "1000000000000000003"])
    def test_q_over_limit(self, runner, q, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "jfun-h0", lambda rec, q: ran.append(q))
        res = invoke(runner, ["verify", "--suite", "jfun-h0", "--q", q])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert ran == []

    def test_max_q_within_oracle_budget(self):
        # above q = 5 the integrals suite reaches e = -2, that is q^4 residue points
        assert verify.VERIFY_MAX_Q ** 4 <= ORACLE_MAX_POINTS

    def test_failing_suite_exits_one(self, runner, monkeypatch):
        def failing(rec, q):
            rec.equal("forced", "test/forced", lambda: (1, 2))
        monkeypatch.setitem(verify.SUITES, "jfun-h0", failing)
        res = invoke(runner, ["verify", "--suite", "jfun-h0"])
        assert res.exit_code == 1
        assert "[fail]" in res.stdout
        assert "internal error" not in res.stderr

    def test_check_error_recorded_as_failure(self, runner, monkeypatch):
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
        res = invoke(runner, ["--json", "verify", "--suite", "jfun-h0"])
        assert res.exit_code == 1
        assert "internal error" not in res.stderr
        doc = out_json(res)
        assert (doc["passed"], doc["failed"]) == (1, 2)
        status = {c["id"]: (c["status"], c["lhs"]) for c in doc["checks"]}
        assert status["over-budget"] == ("fail", "BudgetError: too many pairs")
        assert status["broken"] == ("fail", "InvariantError: tail is not geometric")
        assert status["after"][0] == "pass"

    def test_setup_error_fails_checks_only(self, runner, monkeypatch):
        # every gram-duality check computes gram_g; none may abort the run
        def broken(Y, B):
            raise InvariantError("gram product broken")
        monkeypatch.setattr(verify, "gram_g", broken)
        res = invoke(runner, ["--json", "verify", "--suite", "gram-duality"])
        assert res.exit_code == 1
        assert "internal error" not in res.stderr
        doc = out_json(res)
        assert [c["id"] for c in doc["checks"]] == [
            "pairing-swap-n1[h=0]", "pairing-swap-n1[h=1]", "pairing-swap-n1[h=2]",
            "pairing-swap-n2[sampled]", "pairing-swap-n3[random-100]"]
        assert (doc["passed"], doc["failed"]) == (0, 5)
        for c in doc["checks"]:
            assert c["lhs"] == "InvariantError: gram product broken"

    def test_brute_spot_within_budget_at_q5(self, runner):
        res = invoke(runner, ["--json", "verify", "--suite", "partition-sums", "--q", "5"])
        assert res.exit_code == 0
        ids = [c["id"] for c in out_json(res)["checks"]]
        assert "brute-spot[xi=1,0;lam=1;p=5,d=2]" in ids


class TestGlobalOptions:
    def test_only_json_and_decimal(self, runner, tmp_path, monkeypatch):
        # --json and --decimal are the only settings; no file or environment variable sets them
        for removed in (["--cache", str(tmp_path / "c.jsonl")],
                        ["--config", str(tmp_path / "conf")],
                        ["--jobs", "2"]):
            res = invoke(runner, [*removed, "jfun", "--t", "1", "--B", "diag:0,0"])
            assert res.exit_code == 2
            assert res.stdout == ""
        args = ["--json", "jfun", "--t", "1", "--B", "diag:0,0"]
        plain = invoke(runner, args)
        conf = tmp_path / "conf"
        conf.write_text("decimal=3\n")
        monkeypatch.setenv("HERMDENS_CONFIG", str(conf))
        res = invoke(runner, args)
        assert res.exit_code == 0
        assert res.stdout == plain.stdout
