import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mahler import cli, memo
from padic_mahler.cli import main
from padic_mahler.corpus import (
    branched_cover_homology_order,
    load_corpus,
    verify_corpus,
)
from padic_mahler.errors import DomainError
from padic_mahler.padics import PadicNumber
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import LaurentPolynomial

P = parse_laurent


class TestHomologyOrder:
    def test_figure_eight_double_cover(self):
        order, caveat = branched_cover_homology_order(P("t^2 - 3*t + 1"), 2)
        assert order == 5 and caveat is False

    def test_trivial_cover(self):
        order, caveat = branched_cover_homology_order(P("t^2 - 3*t + 1"), 1)
        assert order == 1 and caveat is False

    def test_link_caveat(self):
        order, caveat = branched_cover_homology_order(P("2*t - 2"), 3,
                                                      components=2)
        assert order == 12 and caveat is True

    def test_figure_eight_classical_sequence(self):
        # first homology orders of the cyclic branched covers of the
        # figure-eight knot, classical values
        orders = [branched_cover_homology_order(P("t^2 - 3*t + 1"), n)[0]
                  for n in range(1, 7)]
        assert orders == [1, 5, 16, 45, 121, 320]


@pytest.fixture(scope="module")
def records():
    return load_corpus()


@pytest.fixture(scope="module")
def report(records):
    return verify_corpus(records)


class TestCorpus:
    def test_record_inventory(self, records):
        names = {r.name for r in records}
        assert names == {"4_1", "4^2_1", "5_2", "6^2_1", "6^2_2", "6^2_3",
                         "7^2_1", "7^2_2", "7^2_3", "9^2_23", "8^3_7"}

    def test_every_delta_parses_and_substitutes(self, records):
        for record in records:
            for sub in record.substitutions:
                record.derived_reduced(sub.label)
                record.reduced_polynomial(sub.label)
                record.alexander_polynomial(sub.label)

    def test_overridden_records_are_annotated(self, records):
        for record in records:
            if record.reduced_overrides:
                assert record.annotations, record.name

    def test_all_paper_claims_pass(self, report):
        assert report.failed_paper_claims == []
        assert report.exit_status == 0

    def test_no_failures_at_all(self, report):
        assert report.failed == []

    def test_skips_are_documented(self, report):
        for r in report.results:
            if r.status == "skip":
                assert r.detail

    def test_report_is_deterministic(self, records):
        a = verify_corpus(records).to_json(include_timing=False)
        b = verify_corpus(records).to_json(include_timing=False)
        assert a == b

    def test_bad_schema_rejected(self, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps({"schema_version": 99, "records": []}))
        with pytest.raises(DomainError):
            load_corpus(bad)

    def test_parse_error_reports_record(self, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"name": "X", "components": 1, "delta": "t +* 1",
                         "substitutions": [], "claims": []}]}))
        with pytest.raises(DomainError) as err:
            load_corpus(bad)
        assert "X" in str(err.value)

    @pytest.mark.parametrize("delta, exponents", [
        ("1 + x*y", [1]),
        ("1 + x*y", [1, 1, 1]),
        ("t - 2", [1, 1]),
    ])
    def test_substitution_arity_reports_record(self, tmp_path, delta,
                                               exponents):
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"name": "X", "components": 1, "delta": delta,
                         "substitutions": [{"label": "s",
                                            "exponents": exponents}],
                         "claims": []}]}))
        with pytest.raises(DomainError, match="record X: .*arity"):
            load_corpus(bad)

    def test_one_variable_delta_is_substituted(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"name": "K", "components": 1, "delta": "t - 2",
                         "substitutions": [{"label": "(t^3)",
                                            "exponents": [3]}],
                         "claims": []}]}))
        [record] = load_corpus(path)
        assert record.derived_reduced("(t^3)") == parse_laurent("t^3 - 2")

    def test_failing_paper_claim_sets_exit_status(self, tmp_path):
        wrong = tmp_path / "corpus.json"
        wrong.write_text(json.dumps({
            "schema_version": 1,
            "records": [{
                "name": "bogus", "components": 1, "delta": "2*t - 2",
                "substitutions": [{"label": "(t)", "exponents": [1]}],
                "claims": [{"kind": "mu", "label": "(t)",
                            "provenance": "PAPER", "p": 2, "value": 7}]}]}))
        report = verify_corpus(load_corpus(wrong))
        assert report.exit_status == 1
        assert len(report.failed_paper_claims) == 1

    def test_failing_derived_claim_does_not_gate_exit(self, tmp_path):
        wrong = tmp_path / "corpus.json"
        wrong.write_text(json.dumps({
            "schema_version": 1,
            "records": [{
                "name": "bogus", "components": 1, "delta": "2*t - 2",
                "substitutions": [{"label": "(t)", "exponents": [1]}],
                "claims": [{"kind": "mu", "label": "(t)",
                            "provenance": "DERIVED", "p": 2, "value": 7}]}]}))
        report = verify_corpus(load_corpus(wrong))
        assert report.failed and report.exit_status == 0

    def test_claim_missing_parameter_is_a_fail_row(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{
                "name": "bogus", "components": 1, "delta": "2*t - 2",
                "substitutions": [{"label": "(t)", "exponents": [1]}],
                "claims": [{"kind": "mu", "label": "(t)",
                            "provenance": "PAPER", "value": 1},
                           {"kind": "mu", "label": "(t)",
                            "provenance": "PAPER", "p": 2, "value": 1}]}]}))
        assert main(["--format", "json", "verify-corpus",
                     "--corpus", str(path)]) == 1
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [r["status"] for r in rows] == ["fail", "pass"]
        assert rows[0]["detail"] == "error: KeyError: 'p'"

    def test_record_missing_key_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"name": "nodelta", "components": 1,
                         "substitutions": [], "claims": []}]}))
        assert main(["verify-corpus", "--corpus", str(path)]) == 4
        assert "nodelta" in capsys.readouterr().err

    @pytest.mark.parametrize("delta, exponents", [
        ("2 - x - y + 2*x*y", [1.5, 1]), ("t - 2", [2.9])])
    def test_non_integer_exponent_is_a_domain_error(self, tmp_path, capsys,
                                                    delta, exponents):
        # refused at load, not truncated to an integer exponent
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"name": "fractional", "components": 1,
                         "delta": delta, "claims": [],
                         "substitutions": [{"label": "(t)",
                                            "exponents": exponents}]}]}))
        assert main(["verify-corpus", "--corpus", str(path)]) == 4
        assert "must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        (b"{", "not valid JSON"),
        (b"\xff", "not valid JSON"),
        (b'{"schema_version": 1}', '"records" must be a list'),
        (b"[1]", "must be a JSON object"),
    ])
    def test_malformed_corpus_file_is_a_domain_error(self, tmp_path, capsys,
                                                     text, problem):
        path = tmp_path / "corpus.json"
        path.write_bytes(text)
        assert main(["verify-corpus", "--corpus", str(path)]) == 4
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_corpus_path_is_a_domain_error(self, tmp_path, capsys,
                                                      name):
        # a nonexistent file, then a directory
        path = tmp_path / name
        assert main(["verify-corpus", "--corpus", str(path)]) == 4
        assert f"cannot read corpus {path}" in capsys.readouterr().err

    def test_iwasawa_claim_runs_consistency_check(self, tmp_path):
        # 4(t-1)^2 has a multiple zero at t = 1, which verify_consistency
        # refuses: the homology model does not cover it
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{
                "name": "double", "components": 1,
                "delta": "4*t^2 - 8*t + 4",
                "substitutions": [{"label": "(t)", "exponents": [1]}],
                "claims": [{"kind": "iwasawa", "label": "(t)",
                            "provenance": "PAPER", "p": 2, "lambda": 2,
                            "mu": 2}]}]}))
        [row] = verify_corpus(load_corpus(path)).results
        assert row.status == "fail"
        assert row.detail.startswith("error:")


# Inputs at the edge of a guard, each with its documented exit code.  A
# traceback fails the test; so does a total time over the budget.
EXIT_CODE_CASES = [
    (["mahler", "--poly", "t-2", "--tol", "0"], 4),
    (["mahler", "--poly", "t-2", "--tol", "nan"], 4),
    (["verify-corpus", "--tol", "0"], 4),
    (["mahler", "--poly", "t-2", "--place", "4"], 4),
    (["mahler", "--poly", "t-2", "--place", "foo"], 2),
    (["iwasawa", "--poly", "t-2", "--prime", "3", "--rmax", "0"], 4),
    # p divides both the leading and the trailing coefficient
    (["iwasawa", "--poly", "2*t^2+t+2", "--prime", "2"], 0),
    (["mp", "--poly", "2*t^2+t+2", "--prime", "2"], 0),
    # coefficients near 10^50, and one whose monic factor leaves float64
    (["mahler", "--poly", "t^2-10^50*t+1"], 0),
    (["iwasawa", "--poly", "10^50*t^2+3*t+10^50", "--prime", "3"], 0),
    (["mahler", "--poly", "t-10^400"], 6),
    (["homology", "--poly", "t^2-3*t+1", "--n", "10000"], 0),
    # (t-1)^12 and a quartic to the 4th: one determinant of dimension 4,
    # where the unsplit degree-28 determinant took 16 s
    (["homology", "--poly", "((12*t^0-6*t^2+5*t^1+12*t^4)*(t-1)^3)^4",
      "--n", "257", "--components", "2"], 0),
    (["mahler", "--poly", "(t-1)^1100"], 0),
    (["mahler", "--poly", "(t-1)^("], 3),
    (["mahler", "--poly", "(t"], 3),
    (["mahler", "--poly", "x*y"], 4),
    # a root 10^-200 off the unit circle certifies at the 1024-bit cap;
    # 10^-320 needs more
    (["mahler", "--poly", "(t-1)*(t-1-1/10^200)"], 0),
    (["mahler", "--poly", "(t-1)*(t-1-1/10^320)"], 6),
    (["mp", "--poly", "(3*t-1)*(3*t-4)*(t-3)", "--prime", "3"], 0),
    (["growth", "--poly", "t-3", "--place", "inf", "--pure"], 4),
    (["iwasawa", "--poly", "3*t^3+t-18", "--prime", "2", "--rmax", "3"], 6),
    # nested past the parser's limit: a parse error, not a RecursionError
    (["mahler", "--poly", "(" * 300 + "t" + ")" * 300], 3),
    (["mp", "--poly", "t^2-2*t+4", "--prime", "2", "--nbudget", "3"], 4),
    (["mp", "--poly", "t^2-2*t+4", "--prime", "2", "--precision", "0"], 5),
    # the estimators certify at most precision - 1 digits
    (["mp", "--poly", "3*t-1", "--prime", "3", "--precision", "1"], 5),
    (["mp", "--poly", "2*t-1", "--prime", "2", "--precision", "1"], 5),
    (["hbar", "--poly", "3*t-1", "--prime", "3", "--precision", "1",
      "--solenoid"], 5),
    (["growth", "--poly", "3*t-1", "--place", "3", "--pure",
      "--precision", "1"], 5),
    (["homology", "--poly", "t^2-3*t+1", "--n", "3", "--components", "0"], 4),
    (["mahler", "--delta", "x*y-x-y+1", "--subs", "1,1,1"], 4),
    (["homology", "--delta", "t-2", "--subs", "1,1", "--n", "3"], 4),
    (["homology", "--delta", "1/2*x+y", "--subs", "1,1", "--n", "3"], 4),
    # rational coefficients: only the Mahler measures take them
    (["iwasawa", "--poly", "1/2*t+1", "--prime", "3"], 4),
    (["mp", "--poly", "1/2*t+1", "--prime", "3"], 4),
    (["hbar", "--poly", "1/2*t+1", "--prime", "3", "--solenoid"], 4),
    (["homology", "--poly", "1/2*t+1", "--n", "3"], 4),
    (["growth", "--poly", "1/2*t+1", "--place", "3"], 4),
    (["growth", "--poly", "1/2*t+1", "--place", "inf"], 4),
    (["growth", "--poly", "(t-1)*(1/2*t+1)", "--place", "3", "--pure",
      "--components", "2"], 4),
    (["entropy", "--poly", "1/2*t+1"], 4),
    (["mahler", "--poly", "1/2*t+1", "--place", "inf"], 0),
    (["mahler", "--poly", "1/2*t+1", "--place", "2"], 0),
]


def test_documented_exit_codes(capsys):
    start = time.perf_counter()
    for argv, code in EXIT_CODE_CASES:
        try:
            got = main(argv)
        except SystemExit as exc:   # argparse's usage error
            got = exc.code
        assert got == code, argv
    assert time.perf_counter() - start < 5.0


class TestCli:
    def test_mahler_inf(self, capsys):
        assert main(["mahler", "--poly", "t^2-3*t+1", "--place", "inf"]) == 0
        assert "0.9624236501" in capsys.readouterr().out

    def test_mahler_finite_place(self, capsys):
        assert main(["mahler", "--poly", "2*t-2", "--place", "2"]) == 0
        assert "-1 * log 2" in capsys.readouterr().out

    def test_padic_mahler(self, capsys):
        assert main(["mahler", "--poly", "4*t^4-8*t^2+4",
                     "--place", "2"]) == 0
        assert "-2 * log 2" in capsys.readouterr().out

    def test_iwasawa(self, capsys):
        assert main(["iwasawa", "--poly", "2*t-2", "--prime", "2",
                     "--rmax", "6"]) == 0
        assert "lambda=1 mu=1 nu=-1 r0=1" in capsys.readouterr().out

    def test_iwasawa_deep_tower(self, capsys):
        # mu = 1: the modulus no longer grows with 2^r, so r = 40 is cheap
        assert main(["iwasawa", "--poly", "2*t-2", "--prime", "2",
                     "--rmax", "40"]) == 0
        assert capsys.readouterr().out.strip() == \
            "lambda=1 mu=1 nu=-1 r0=1 (analytic lambda=1 mu=1)"

    def test_entropy_json(self, capsys):
        assert main(["--format", "json", "entropy",
                     "--poly", "4*t^2-10*t+4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h_p"] == {"2": "1"}
        assert payload["content"] == 2

    def test_mp_agreement(self, capsys):
        assert main(["mp", "--poly", "2*t^2-3*t+2", "--prime", "2",
                     "--precision", "24"]) == 0
        out = capsys.readouterr().out
        assert "agreement" in out

    def test_mp_without_closed_form(self, capsys):
        # the roots 1/3 and 4/3 meet mod 3 after scaling: the estimator
        # answers alone and says why no closed form backs it
        assert main(["mp", "--poly", "(3*t-1)*(3*t-4)*(t-3)",
                     "--prime", "3"]) == 0
        assert "closed form unavailable: residual polynomial does not " \
            "split" in capsys.readouterr().out

    def test_mp_large_budget(self, capsys):
        # only the 8-sample window is swept and logged, so a budget of
        # 3000 runs no identity solve or log below n = 2989
        start = time.perf_counter()
        assert main(["mp", "--poly", "(3*t-1)*(t-3)*(9*t+2)*(t-6)",
                     "--prime", "3", "--nbudget", "3000"]) == 0
        assert time.perf_counter() - start < 10.0
        assert "agreement:   31 3-adic digits" in capsys.readouterr().out

    def test_mp_contradiction_is_a_convergence_error(self, capsys,
                                                     monkeypatch):
        # a closed form that contradicts the estimator's certified digits
        # must stop mp with exit 6, not print both
        real = cli.pure_log_mahler_closed_form

        def contradicting(f, p, precision):
            cf = real(f, p, precision)
            cf.value = cf.value + PadicNumber.from_int(1, p, precision)
            return cf

        monkeypatch.setattr(cli, "pure_log_mahler_closed_form", contradicting)
        assert main(["mp", "--poly", "2*t^2-3*t+2", "--prime", "2",
                     "--precision", "24"]) == 6
        captured = capsys.readouterr()
        assert "disagree" in captured.err and "closed form" not in captured.out

    def test_hbar(self, capsys):
        assert main(["hbar", "--poly", "2*t^2-5*t+2", "--prime", "2",
                     "--solenoid"]) == 0
        assert "hbar_2" in capsys.readouterr().out

    def test_homology(self, capsys):
        assert main(["homology", "--poly", "t^2-3*t+1", "--n", "2"]) == 0
        assert "= 5" in capsys.readouterr().out

    def test_homology_of_repeated_factors(self, capsys):
        # the order as the unsplit degree-28 determinant computed it, in
        # 16 s: 1192 digits, pinned by their sha256
        start = time.perf_counter()
        assert main(["homology", "--poly",
                     "((12*t^0-6*t^2+5*t^1+12*t^4)*(t-1)^3)^4",
                     "--n", "257", "--components", "2"]) == 0
        assert time.perf_counter() - start < 1.0
        order = capsys.readouterr().out.split()[2]
        assert len(order) == 1192
        assert hashlib.sha256(order.encode()).hexdigest() == \
            "45b3a2a74365bcacf590f8f8d6911cdc062be79e55bb9368d2e0f30f11db0c8e"

    def test_one_variable_delta_takes_subs(self, capsys):
        # --subs 3 maps t -> t^3, as the corpus does, and is not ignored
        assert main(["homology", "--delta", "t-2", "--subs", "3",
                     "--n", "3"]) == 0
        delta_out = capsys.readouterr().out
        assert main(["homology", "--poly", "t^3-2", "--n", "3"]) == 0
        assert delta_out == capsys.readouterr().out == "|H_1(M_3)| = 1\n"

    def test_growth_with_delta(self, capsys):
        assert main(["growth", "--delta", "2-x-y+2*x*y", "--subs", "1,-1",
                     "--place", "inf", "--nmax", "40"]) == 0
        assert "closed form 1.3169578969" in capsys.readouterr().out

    def test_pure_growth(self, capsys):
        assert main(["growth", "--poly", "(t-1)^2", "--place", "3", "--pure",
                     "--components", "3", "--nmax", "50"]) == 0
        assert "growth limit" in capsys.readouterr().out

    def test_verify_corpus(self, capsys):
        assert main(["verify-corpus"]) == 0
        out = capsys.readouterr().out
        assert "failed 0" in out

    @pytest.mark.parametrize("spaced, joined", [
        (["entropy", "--poly", "-6*t+6"], ["entropy", "--poly=-6*t+6"]),
        (["mahler", "--poly", "-t^2+3*t-1", "--place", "inf"],
         ["mahler", "--poly=-t^2+3*t-1", "--place", "inf"]),
        (["growth", "--delta", "-x-y+2+2*x*y", "--subs", "-1,1",
          "--nmax", "20"],
         ["growth", "--delta=-x-y+2+2*x*y", "--subs=-1,1", "--nmax", "20"]),
    ])
    def test_values_that_start_with_a_minus_sign(self, capsys, spaced,
                                                 joined):
        # argparse alone reads "-6*t+6" as an option and exits 2
        assert main(joined) == 0
        expected = capsys.readouterr().out
        assert main(spaced) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_verify_corpus_nonpositive_tolerance_exit_code(self, capsys, tol):
        # a refusal, not the "a PAPER claim failed" code 1
        assert main(["verify-corpus", "--tol", tol]) == 4
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        assert main(["mahler", "--poly", "t +* 1", "--place", "inf"]) == 3

    def test_domain_error_exit_code(self, capsys):
        assert main(["iwasawa", "--poly", "t^2+1", "--prime", "2"]) == 4

    def test_iwasawa_multiple_zero_at_one_exit_code(self, capsys):
        # the one consistency path refuses what the homology model excludes
        assert main(["iwasawa", "--poly", "4*t^2-8*t+4", "--prime", "2"]) == 4
        assert "multiple zero" in capsys.readouterr().err

    def test_huge_leading_coefficient(self, capsys):
        assert main(["--format", "json", "mahler",
                     "--poly", "10^400*t-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["log_value"] - 400 * math.log(10)) <= 1e-9
        assert main(["entropy", "--poly", "10^400*t-1"]) == 0
        assert "h_2 = 400 * log 2, h_5 = 400 * log 5" in \
            capsys.readouterr().out

    def test_lead_beyond_trial_division(self, capsys):
        # factored by rho in well under a second; trial division up to
        # 10^9 once took ~60 s and then refused
        assert main(["entropy", "--poly", "1000000007*1000000009*t-1"]) == 0
        assert "h_1000000007 = 1 * log 1000000007, " \
            "h_1000000009 = 1 * log 1000000009" in capsys.readouterr().out

    def test_results_beyond_int_str_limit(self, capsys):
        # each of these crossed the interpreter's 4300-digit int<->str
        # limit; main lifts it for the run only
        limit = sys.get_int_max_str_digits()
        assert main(["homology", "--poly", "t^2-3*t+1", "--n", "100000"]) == 0
        printed = capsys.readouterr().out.split(" = ")[1].strip()
        # R(t^2 - 3t + 1, nu_n) = L_2n - 2, with L_k the Lucas numbers
        lucas, prev = 2, -1
        for _ in range(200000):
            lucas, prev = lucas + prev, lucas
        expected = lucas - 2
        assert main(["entropy", "--poly", "10^5000*t-1"]) == 0
        assert "h_2 = 5000 * log 2, h_5 = 5000 * log 5" in \
            capsys.readouterr().out
        assert main(["mahler", "--poly", "1" + "0" * 5000 + "*t-1",
                     "--tol", "1e-9"]) == 0
        assert "= 11512.9254649702" in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert printed == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_huge_lead_over_tiny_roots(self, capsys):
        # the monic factor's coefficients underflow float64 to 0, but
        # Fujiwara's bound puts both roots inside the unit circle
        assert main(["--format", "json", "mahler",
                     "--poly", "10^400*t^2-t+1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["log_value"] - 400 * math.log(10)) <= 1e-9

    def test_huge_monic_coefficient_exit_code(self, capsys):
        assert main(["mahler", "--poly", "t-10^400"]) == 6
        assert "float64" in capsys.readouterr().err

    def test_random_degree_200(self, capsys):
        rng = random.Random(200)
        text = " + ".join(f"{rng.randint(-9, 9)}*t^{e}" for e in range(200))
        start = time.perf_counter()
        assert main(["mahler", "--poly", text + " + t^200", "--tol", "1e-9"]) == 0
        assert time.perf_counter() - start < 60.0
        assert "abs error" in capsys.readouterr().out

    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        # `padic-mahler ... | head -c 1`: the reader closes the pipe early
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
            assert main(["--format", "json", "mahler",
                         "--poly", "t^2-3*t+1"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_poly_exit_code(self, capsys):
        assert main(["mahler", "--place", "inf"]) == 4

    def test_nonpositive_precision_exit_code(self, capsys):
        assert main(["hbar", "--poly", "2*t^2-5*t+2", "--prime", "2",
                     "--solenoid", "--precision", "-2"]) == 5

    @pytest.mark.parametrize("command", ["mahler", "entropy"])
    def test_nan_tolerance_exit_code(self, capsys, command):
        assert main([command, "--poly", "t^2-3*t+1", "--tol", "nan"]) == 4

    def test_pure_growth_small_budget_exit_code(self, capsys):
        assert main(["growth", "--poly", "(t-1)*(2*t-3)", "--place", "3",
                     "--pure", "--components", "2", "--nmax", "1"]) == 4

    @pytest.mark.parametrize("argv", [
        ["mahler", "--poly", "t-2", "--place", "foo"],
        ["growth", "--delta", "2-x-y+2*x*y", "--subs", "1,a"],
    ])
    def test_malformed_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


@st.composite
def cli_sessions(draw):
    """Two to five argv lists for consecutive CLI calls on polynomials of
    degree <= 6 (products of powers of small factors), each call on the
    polynomial of the one before with probability one half."""
    calls, text = [], None
    primes = st.sampled_from(["2", "3", "5"])
    for _ in range(draw(st.integers(2, 5))):
        if text is None or draw(st.booleans()):
            factors, degree = [], 0
            for _ in range(draw(st.integers(1, 3))):
                d = draw(st.integers(0, min(2, 6 - degree)))
                coeffs = draw(st.lists(st.integers(-6, 6), min_size=d + 1,
                                       max_size=d + 1).filter(lambda c: c[-1]))
                k = draw(st.integers(1, 3)) if d else 1
                if degree + k * d > 6:
                    k = 1   # d <= 6 - degree, so one power fits
                degree += k * d
                q = LaurentPolynomial(dict(enumerate(coeffs)))
                factors.append(f"({q})^{k}")
            text = "*".join(factors)
        command = draw(st.sampled_from(["mahler", "entropy", "mp", "hbar",
                                        "homology", "growth", "iwasawa"]))
        place = draw(st.sampled_from(["inf", "2", "3", "5"]))
        budget = str(draw(st.integers(1, 60)))
        tol = draw(st.sampled_from(["1e-12", "1e-9", "1e-6"]))
        pure = ["--prime", draw(primes), "--nbudget", budget,
                "--precision", str(draw(st.integers(1, 32)))]
        options = {
            "mahler": ["--place", place, "--tol", tol],
            "entropy": ["--tol", tol],
            "mp": pure,
            "hbar": pure + ["--solenoid"] * draw(st.booleans()),
            "homology": ["--n", budget,
                         "--components", str(draw(st.integers(1, 2)))],
            "growth": ["--place", place, "--nmax", budget]
            + (["--pure", "--components", str(draw(st.integers(1, 3)))]
               if place != "inf" and draw(st.booleans()) else []),
            "iwasawa": ["--prime", draw(primes),
                        "--rmax", str(draw(st.integers(1, 4)))],
        }[command]
        json_out = ["--format", "json"] * draw(st.booleans())
        calls.append([*json_out, command, "--poly", text, *options])
    return calls


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True,
          deadline=timedelta(seconds=10))
@given(cli_sessions())
def test_warm_cli_calls_equal_cold(session):
    # each call after the calls before it, whatever they left in memo.py,
    # says what the same call says after memo.clear()
    warm = [_cli(argv) for argv in session]
    for argv, got in zip(session, warm):
        memo.clear()
        assert got == _cli(argv), argv
        code, _, err = got
        assert code in (0, 4, 5, 6) and "Traceback" not in err, (argv, got)
