"""Tests for the command-line interface and its golden JSON outputs."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superquant
from superquant import cli, geometry, projective, verifier
from superquant.geometry import affine_quantize
from superquant.cli import main
from superquant.expr import value_from_json
from superquant.supercore import Signature

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (name, argv, expected exit code); every subcommand and mode appears.
GOLDEN_CASES = [
    (
        "quantize",
        ["quantize", "--p", "1", "--q", "1", "--lambda", "1/3", "--delta",
         "1/5", "--symbol", "x1*ex1 + t1*et1"],
        0,
    ),
    (
        "quantize-psl",
        ["quantize", "--p", "1", "--q", "2", "--lambda", "1/3", "--delta",
         "1/5", "--t", "1", "--symbol", "x1*ex1"],
        0,
    ),
    (
        "symbol-map",
        ["symbol-map", "--p", "1", "--q", "1", "--lambda", "1/3", "--delta",
         "1/5", "--operator", "x1*dx1 + t1*dt1 + 1"],
        0,
    ),
    (
        "affine-quantize",
        ["affine-quantize", "--p", "1", "--q", "1", "--lambda", "1/2",
         "--symbol", "t1*ex1*et1"],
        0,
    ),
    (
        "lie-density",
        ["lie", "density", "--p", "2", "--q", "1", "--lambda", "1/2",
         "--field", "x1*dx1 + t1*dt1", "--function", "x1^2*t1"],
        0,
    ),
    (
        "lie-symbol",
        ["lie", "symbol", "--p", "1", "--q", "1", "--delta", "1/5",
         "--field", "x1^2*dx1", "--symbol", "ex1"],
        0,
    ),
    (
        "lie-operator",
        ["lie", "operator", "--p", "1", "--q", "1", "--lambda", "1/3",
         "--delta", "1/5", "--field", "x1*dx1", "--operator", "dx1*dt1"],
        0,
    ),
    (
        "div-vfield",
        ["div", "vfield", "--p", "2", "--q", "2",
         "--field", "x1*x2*dx1 + t1*t2*dt2"],
        0,
    ),
    (
        "div-symbol",
        ["div", "symbol", "--p", "1", "--q", "1", "--delta", "0",
         "--symbol", "x1*t1*ex1*et1"],
        0,
    ),
    (
        "gamma",
        ["gamma", "--p", "1", "--q", "1", "--lambda", "1/2", "--index", "1",
         "--symbol", "ex1*et1"],
        0,
    ),
    (
        "casimir",
        ["casimir", "--p", "1", "--q", "1", "--delta", "1/5",
         "--symbol", "ex1"],
        0,
    ),
    (
        "alpha",
        ["alpha", "--p", "2", "--q", "1", "--k", "2", "--delta", "1/5"],
        0,
    ),
    (
        "coeff",
        ["coeff", "--p", "1", "--q", "0", "--k", "2", "--r", "1",
         "--lambda", "1/3", "--delta", "1/5"],
        0,
    ),
    (
        "critical",
        ["critical", "--p", "2", "--q", "1", "--kmax", "3"],
        0,
    ),
    (
        "realize",
        ["realize", "--p", "1", "--q", "1", "--eps", "1"],
        0,
    ),
    (
        "check-homomorphism",
        ["check", "homomorphism", "--p", "1", "--q", "1"],
        0,
    ),
    (
        "check-equivariance",
        ["check", "equivariance", "--p", "1", "--q", "1", "--lambda", "1/3",
         "--delta", "1/5", "--samples", "1", "--degree-max", "1",
         "--seed", "3"],
        0,
    ),
    (
        "check-equivariance-psl",
        ["check", "equivariance", "--p", "1", "--q", "2", "--variant", "psl",
         "--t", "1", "--samples", "1", "--degree-max", "1", "--seed", "7"],
        0,
    ),
    (
        "check-casimir",
        ["check", "casimir", "--p", "1", "--q", "1", "--delta", "1/5",
         "--kmax", "1", "--samples", "1", "--seed", "1"],
        0,
    ),
    (
        "check-relcas",
        ["check", "relcas", "--p", "2", "--q", "1", "--lambda", "1/2",
         "--kmax", "1", "--samples", "1", "--seed", "1"],
        0,
    ),
]


# every subcommand that takes --p/--q, with arguments valid at 2|1 and at 1|2
SIGNATURE_COMMANDS = [
    ("quantize", ["quantize", "--symbol", "x1*ex1"]),
    ("symbol-map", ["symbol-map", "--operator", "x1*dx1"]),
    ("affine-quantize", ["affine-quantize", "--symbol", "x1*ex1"]),
    ("lie-density", ["lie", "density", "--field", "x1*dx1", "--function", "x1"]),
    ("lie-symbol", ["lie", "symbol", "--field", "x1*dx1", "--symbol", "ex1"]),
    ("lie-operator", ["lie", "operator", "--field", "x1*dx1", "--operator", "dx1"]),
    ("div-vfield", ["div", "vfield", "--field", "x1*dx1"]),
    ("div-symbol", ["div", "symbol", "--symbol", "x1*ex1"]),
    ("gamma", ["gamma", "--index", "1", "--symbol", "x1*ex1"]),
    ("casimir", ["casimir", "--symbol", "ex1"]),
    ("alpha", ["alpha", "--k", "2", "--delta", "1/3"]),
    ("coeff", ["coeff", "--k", "2", "--r", "1"]),
    ("critical", ["critical", "--kmax", "2"]),
    ("realize", ["realize", "--euler"]),
    ("check-equivariance",
     ["check", "equivariance", "--samples", "1", "--degree-max", "0"]),
    ("check-casimir", ["check", "casimir", "--samples", "1", "--kmax", "0"]),
    ("check-homomorphism", ["check", "homomorphism"]),
    ("check-relcas", ["check", "relcas", "--samples", "1", "--kmax", "0"]),
]
# (p, q, the other variant, the signature's own variant)
VARIANT_SIGNATURES = [("2", "1", "psl", "sl"), ("1", "2", "sl", "psl")]


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


class TestGolden:
    @pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_matches_golden(self, name, argv, expected_code, tmp_path):
        code, data = run_json(argv, tmp_path)
        assert code == expected_code
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert data == golden

    def test_golden_dir_complete(self):
        names = {c[0] for c in GOLDEN_CASES}
        files = {p.stem for p in GOLDEN_DIR.glob("*.json")}
        assert names == files


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["quantize", "--p", "1", "--q", "0"]) == 1
        assert main(["bogus-command"]) == 1
        assert main(["quantize", "--p", "1", "--q", "0", "--lambda", "x",
                     "--symbol", "ex1"]) == 1
        capsys.readouterr()

    def test_parse_error_is_one(self, capsys):
        assert main(["quantize", "--p", "1", "--q", "0",
                     "--symbol", "ex7 +"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["quantize", "--symbol=--"],
        ["symbol-map", "--operator=--"],
        ["div", "vfield", "--field=--"],
        ["lie", "density", "--field=x1*dx1", "--function=--"],
    ], ids=["symbol", "operator", "field", "function"])
    def test_dashes_are_expression_text(self, capsys, argv):
        # argparse drops a "--" value unless the CLI keeps it
        assert main(argv + ["--p", "1", "--q", "1"]) == 1
        assert capsys.readouterr().err == (
            "expression error: unexpected token '-' (at position 1)\n")

    @pytest.mark.parametrize("sig", [["--p", "1", "--q", "0"], ["--p", "0", "--q", "1"]],
                             ids=["sl", "psl"])
    @pytest.mark.parametrize("r", ["0", "1"])
    def test_negative_coeff_degree_is_one(self, capsys, sig, r):
        # the degree is rejected before the step is checked against it
        assert main(["coeff", *sig, "--k", "-1", "--r", r]) == 1
        assert capsys.readouterr() == ("", "error: degree must be non-negative\n")

    def test_missing_signature_is_one(self, capsys):
        assert main(["critical", "--kmax", "2"]) == 1
        capsys.readouterr()

    def test_critical_delta_is_two(self, capsys):
        assert main(["quantize", "--p", "1", "--q", "0", "--lambda", "1/2",
                     "--delta", "1", "--symbol", "ex1"]) == 2
        capsys.readouterr()

    def test_variant_mismatch_is_two(self, capsys):
        assert main(["quantize", "--p", "2", "--q", "1", "--variant", "psl",
                     "--symbol", "ex1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("p,q,other,_own", VARIANT_SIGNATURES,
                             ids=[f"{v[2]}@{v[0]}|{v[1]}" for v in VARIANT_SIGNATURES])
    @pytest.mark.parametrize("argv", [c[1] for c in SIGNATURE_COMMANDS],
                             ids=[c[0] for c in SIGNATURE_COMMANDS])
    def test_other_variant_is_two_everywhere(self, argv, p, q, other, _own, capsys):
        # among them coeff and alpha at 2|1, which answered with the psl formulas
        assert main(argv + ["--p", p, "--q", q, "--variant", other]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("domain error:")

    @pytest.mark.parametrize("p,q,_other,own", VARIANT_SIGNATURES,
                             ids=[f"{v[3]}@{v[0]}|{v[1]}" for v in VARIANT_SIGNATURES])
    @pytest.mark.parametrize("argv", [c[1] for c in SIGNATURE_COMMANDS],
                             ids=[c[0] for c in SIGNATURE_COMMANDS])
    def test_own_variant_changes_nothing(self, argv, p, q, _other, own, capsys):
        code = main(argv + ["--p", p, "--q", q])
        printed = capsys.readouterr()
        assert main(argv + ["--p", p, "--q", q, "--variant", own]) == code
        assert capsys.readouterr() == printed

    def test_zero_samples_is_one(self, capsys):
        assert main(["check", "equivariance", "--p", "1", "--q", "1",
                     "--samples", "0"]) == 1
        capsys.readouterr()

    def test_negative_check_kmax_is_one(self, capsys):
        assert main(["check", "casimir", "--p", "1", "--q", "1",
                     "--kmax", "-1"]) == 1
        capsys.readouterr()

    def test_negative_critical_kmax_is_one(self, capsys):
        assert main(["critical", "--p", "2", "--q", "1", "--kmax", "-1"]) == 1
        capsys.readouterr()

    def test_critical_kmax_at_cap_runs(self, capsys):
        argv = ["critical", "--p", "2", "--q", "1", "--kmax", str(cli.CRITICAL_KMAX)]
        assert main(argv + ["--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert len(values) == 2 * cli.CRITICAL_KMAX - 1

    def test_critical_kmax_over_cap_is_two(self, capsys):
        argv = ["critical", "--p", "2", "--q", "1", "--kmax", str(cli.CRITICAL_KMAX + 1)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("domain error: ") and "--kmax" in err

    def test_homomorphism_at_cap_runs(self, capsys):
        assert cli.HOMOMORPHISM_NMAX == 8
        argv = ["check", "homomorphism", "--p", "4", "--q", "4", "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and not report["failures"]
        # (n+1)^4 bracket pairs and (n+1)^2 other identities at n = 8
        assert report["samples_run"] == 9**4 + 9**2

    @pytest.mark.parametrize("p,q", [(5, 4), (4, 5), (9, 0)])
    def test_homomorphism_over_cap_is_two(self, capsys, p, q):
        argv = ["check", "homomorphism", "--p", str(p), "--q", str(q)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("domain error: ") and "p + q = 9" in err

    @pytest.mark.parametrize("argv", [
        ["quantize", "--symbol", "x1^32*x2^32*ex1^32*ex2^32"],
        ["symbol-map", "--operator", "x1*x2*dx1^32*dx2^32"],
    ], ids=["quantize", "symbol-map"])
    def test_degree_at_cap_runs(self, argv, capsys):
        assert cli.DEGREE_MAX == 64
        assert main(argv + ["--p", "2", "--q", "0", "--delta", "1/7"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["quantize", "--p", "1", "--q", "0", "--symbol", "x1*ex1^12345678901"],
         "symbol degree 12345678901"),
        (["symbol-map", "--p", "1", "--q", "0", "--operator", "x1*dx1^12345678901"],
         "operator order 12345678901"),
        (["quantize", "--p", "2", "--q", "1", "--symbol", "ex1 + x2*ex1^33*ex2^31*et1"],
         "symbol degree 65"),
        (["symbol-map", "--p", "2", "--q", "1", "--operator", "dx2^64*dt1"],
         "operator order 65"),
    ], ids=["quantize-huge", "symbol-map-huge", "quantize-mixed", "symbol-map-odd"])
    def test_degree_over_cap_is_two(self, argv, message, capsys):
        assert main(argv + ["--delta", "1/7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: {message} exceeds the cap 64\n"

    def test_lie_operator_field_at_cap_runs(self, capsys):
        argv = ["lie", "operator", "--p", "1", "--q", "0",
                "--field", "x1^64*dx1", "--operator", "dx1^64"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("-4096*x1^63*dx1^64 - ")

    @pytest.mark.parametrize("p,field,operator,digest", [
        (4, "x1^16*x2^16*x3^16*x4^16*dx1", "dx1*dx2",
         "9d42ebaee87a7bc077b83466ef410f26f0352b893949d0f47894b16e354d478e"),
        (8, "*".join(f"x{i}^8" for i in range(1, 9)) + "*dx1", "dx1*dx2",
         "4f100eef3d62ba217647f1e1a329cc3fc7913db1745fa24df4bb2b10df53fb6e"),
        (4, "x1^64*dx1", "dx1^64*dx2^64*dx3^64*dx4^64",
         "2fc52aa48b4e7534acd1db2aaf51bf54f99b3e41cf43190d4a96d7e511511395"),
        (4, "x1^16*x2^16*x3^16*x4^16*dx1", " + ".join(f"dx{i}^16" for i in range(1, 5)),
         "7c3fa5956ba79280e8a839c569fc7705b819e4d78a53dc98ccd4d369a517818d"),
        (8, "*".join(f"x{i}^8" for i in range(1, 9)) + "*dx1",
         " + ".join(f"dx{i}^8" for i in range(1, 9)),
         "a1f23708868c49d478914315578ba02eb544194abd4c35910f0f46499bbe1adf"),
    ], ids=["spread-4", "spread-8", "high-order-4", "spread-sum-4", "spread-sum-8"])
    def test_lie_operator_field_over_many_coordinates_runs_promptly(
            self, p, field, operator, digest, capsys):
        # the slot series stop at the field's powers and below some slot key
        # of the operator: the spread fields alone would give 17^4 and 9^8
        # beta, and so would a box over the exponents of the sums
        argv = ["lie", "operator", "--p", str(p), "--q", "0",
                "--field", field, "--operator", operator]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p,q,field,operator,degree", [
        (1, 0, "x1^65*dx1", "dx1", 65),
        (1, 0, "x1^2000*dx1", "dx1^2000", 2000),
        (2, 1, "x1*dx1 + x1^32*x2^32*t1*dt1", "x1*dx2", 65),
    ], ids=["one-step", "large", "odd"])
    def test_lie_operator_field_over_cap_is_two(self, p, q, field, operator, degree,
                                                capsys):
        argv = ["lie", "operator", "--p", str(p), "--q", str(q),
                "--field", field, "--operator", operator]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: field coordinate degree {degree} exceeds the cap 64\n"

    @pytest.mark.parametrize("argv,identities", [
        (["casimir", "--p", "2", "--q", "3", "--kmax", "1"], 2),
        (["relcas", "--p", "3", "--q", "2", "--kmax", "1"], 2),
        (["equivariance", "--p", "4", "--q", "1", "--degree-max", "0"], 35),
    ], ids=["casimir", "relcas", "equivariance"])
    def test_check_signature_at_cap_runs(self, argv, identities, capsys):
        assert cli.CHECK_NMAX == 5
        argv = ["check", *argv, "--samples", "1", "--delta", "1/7", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["samples_run"] == identities

    @pytest.mark.parametrize("mode", ["equivariance", "casimir", "relcas"])
    @pytest.mark.parametrize("p,q", [(3, 3), (6, 0), (0, 6), (40, 40)])
    def test_check_signature_over_cap_is_two(self, mode, p, q, capsys):
        assert main(["check", mode, "--p", str(p), "--q", str(q), "--samples", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: check {mode} at p + q = {p + q} exceeds the cap 5\n"

    @pytest.mark.parametrize("argv,identities", [
        (["casimir", "--kmax", "8", "--samples", "100"], 900),
        (["relcas", "--kmax", "8", "--samples", "1"], 9),
        (["equivariance", "--degree-max", "8", "--samples", "1"], 27),
    ], ids=["casimir", "relcas", "equivariance"])
    def test_check_sizes_at_cap_run(self, argv, identities, capsys):
        assert (cli.CHECK_SAMPLES_MAX, cli.CHECK_DEGREE_MAX) == (100, 8)
        argv = ["check", *argv, "--p", "1", "--q", "0", "--delta", "1/7", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["samples_run"] == identities

    @pytest.mark.parametrize("argv,message", [
        (["casimir", "--samples", "101"], "--samples 101 exceeds the cap 100"),
        (["relcas", "--samples", "10000000000"],
         "--samples 10000000000 exceeds the cap 100"),
        (["equivariance", "--samples", "101"], "--samples 101 exceeds the cap 100"),
        (["casimir", "--kmax", "9"], "--kmax 9 exceeds the cap 8"),
        (["relcas", "--kmax", "9"], "--kmax 9 exceeds the cap 8"),
        (["equivariance", "--degree-max", "9"], "--degree-max 9 exceeds the cap 8"),
    ], ids=["casimir-samples", "relcas-samples", "equivariance-samples",
            "casimir-kmax", "relcas-kmax", "equivariance-degree-max"])
    def test_check_size_over_cap_is_two(self, argv, message, capsys):
        assert main(["check", *argv, "--p", "2", "--q", "1", "--delta", "1/7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"domain error: {message}\n"

    def test_negative_degree_max_is_one(self, capsys):
        assert main(["check", "equivariance", "--p", "1", "--q", "1",
                     "--degree-max", "-1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mode,flag", [
        ("homomorphism", "--samples"),
        ("homomorphism", "--kmax"),
        ("homomorphism", "--degree-max"),
        ("equivariance", "--kmax"),
        ("casimir", "--degree-max"),
        ("relcas", "--degree-max"),
    ])
    def test_ignored_size_flag_is_one(self, mode, flag, capsys):
        assert main(["check", mode, "--p", "2", "--q", "1", flag, "1"]) == 1
        err = capsys.readouterr().err
        assert f"{flag} is not used by check {mode}" in err

    @pytest.mark.parametrize("argv,identities", [
        (["casimir", "--kmax", "3"], 6),
        (["equivariance", "--degree-max", "3", "--delta", "1/7"], 48),
        (["relcas", "--kmax", "3", "--delta", "1/7"], 6),
    ])
    def test_degree_without_frame_monomials_is_zero(self, argv, identities, capsys):
        # at 0|2 no frame monomial has degree 3, so degrees 0..2 give the samples
        assert main(["check", *argv, "--p", "0", "--q", "2", "--samples", "2"]) == 0
        assert f"PASS [{identities} identities" in capsys.readouterr().out

    def test_relcas_at_q_equals_p_plus_one_is_two(self, tmp_path, capsys):
        # the splitting is defined for q != p+1 only: a domain error
        assert main(["check", "relcas", "--p", "1", "--q", "2"]) == 2
        capsys.readouterr()

    def test_failed_check_is_three(self, monkeypatch, capsys):
        # the affine map is not equivariant under the quadratic directions
        monkeypatch.setattr(
            verifier, "quantize", lambda s, cfg: affine_quantize(s, cfg.lam)
        )
        assert main(["check", "equivariance", "--p", "2", "--q", "1",
                     "--samples", "1", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["passed"] is False and report["failures"]
        assert err == ""


class TestTextOutputs:
    def test_classical_quantize_text(self, capsys):
        assert main(["quantize", "--p", "1", "--q", "0", "--lambda", "1/2",
                     "--delta", "0", "--symbol", "x1*ex1"]) == 0
        assert capsys.readouterr().out.strip() == "x1*dx1 + (1/2)"

    def test_constant_symbol_quantize_text(self, capsys):
        assert main(["quantize", "--p", "1", "--q", "0", "--lambda", "1/2",
                     "--delta", "0", "--symbol", "ex1"]) == 0
        assert capsys.readouterr().out.strip() == "dx1"

    def test_critical_list_text(self, capsys):
        assert main(["critical", "--p", "2", "--q", "1", "--kmax", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1, 3/2, 2, 5/2, 3"

    def test_alpha_text(self, capsys):
        assert main(["alpha", "--p", "2", "--q", "1", "--k", "1",
                     "--delta", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_check_text_has_pass_line(self, capsys):
        assert main(["check", "homomorphism", "--p", "1", "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "check_homomorphism" in out and "PASS" in out

    def test_negative_rational_flag(self, capsys):
        assert main(["lie", "density", "--p", "1", "--q", "1",
                     "--lambda=-2/3", "--field", "x1*dx1 + t1*dt1",
                     "--function", "x1*t1"]) == 0
        assert capsys.readouterr().out.strip() == "2*x1*t1"


class TestParserReuse:
    def test_one_parser_serves_consecutive_calls(self, monkeypatch, tmp_path,
                                                  capsys):
        built = []
        build_parser = cli.build_parser

        def counting_build():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._shared_parser.cache_clear()
        try:
            out = tmp_path / "first.json"
            assert main(["critical", "--p", "2", "--q", "1", "--kmax", "3",
                         "--out", str(out), "--format", "json"]) == 0
            assert json.loads(out.read_text())["kind"] == "rationals"
            assert capsys.readouterr().out == ""
            # neither --out nor --format carries over
            assert main(["critical", "--p", "2", "--q", "1", "--kmax", "3"]) == 0
            assert capsys.readouterr().out.strip() == "1, 3/2, 2, 5/2, 3"
            assert main(["quantize", "--p", "1", "--q", "0"]) == 1
            assert "--symbol" in capsys.readouterr().err
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1


class TestFieldPartsReuse:
    def test_check_equivariance_reuses_the_casimir_parts(self, monkeypatch, fresh_cache,
                                                         capsys):
        # the affine Casimir builds every part of the realized basis fields,
        # and only theirs, and check equivariance at 2|1, whose generators
        # are those fields, builds none again: no parts and no slot series
        fresh_cache("_realized_basis", projective, verifier)
        fresh_cache("_realized_generators", verifier)
        fresh_cache("_casimir", projective)
        calls = []
        for name in ("_field_parts", "_slot_series"):
            def counting(*args, _build=getattr(geometry, name), _name=name, **kwargs):
                calls.append(_name)
                return _build(*args, **kwargs)

            monkeypatch.setattr(geometry, name, counting)
        sig = Signature(2, 1)
        projective._casimir(sig, "elementary", "affine")
        fields = projective._realized_basis(sig, "elementary")
        assert calls.count("_field_parts") == len(fields)
        assert all(x._parts.cap == (x._parts.powers,) for x in fields)
        del calls[:]
        argv = ["check", "equivariance", "--p", "2", "--q", "1", "--degree-max", "2",
                "--samples", "2", "--delta", "1/7"]
        assert main(argv) == 0
        assert "PASS" in capsys.readouterr().out
        assert calls == []


class TestJsonReload:
    def test_operator_json_reloads(self, tmp_path):
        code, data = run_json(
            ["quantize", "--p", "1", "--q", "1", "--lambda", "1/3",
             "--delta", "1/5", "--symbol", "x1*ex1 + t1*et1"],
            tmp_path,
        )
        assert code == 0
        d = value_from_json(data)
        assert str(d.lam) == "1/3"
        assert d.order == 1

    def test_symbol_map_json_reloads_as_mixed(self, tmp_path):
        code, data = run_json(
            ["symbol-map", "--p", "1", "--q", "1", "--lambda", "1/3",
             "--delta", "1/5", "--operator", "x1*dx1 + t1*dt1 + 1"],
            tmp_path,
        )
        assert code == 0
        value_from_json(data)  # decodes without error


def run_cli(argv):
    """Run the command in a fresh interpreter, as a user would."""
    src = str(pathlib.Path(superquant.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "superquant.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )


class TestLargeExponents:
    def test_huge_exponent_quantizes_promptly(self):
        # ``x1^N`` is one monomial; the parser never multiplies N factors
        done = run_cli(["quantize", "--p=2", "--q=1", "--delta=1/5",
                        "--symbol=x1^99999999999*ex1"])
        assert done.returncode == 0, done.stderr
        assert "99999999999" in done.stdout

    def test_huge_operator_order_lie_operator_promptly(self):
        # the slot series stop at the field's power of x1, 2
        done = run_cli(["lie", "operator", "--p", "1", "--q", "0",
                        "--field", "x1^2*dx1", "--operator", "dx1^12345678901"])
        assert done.returncode == 0, done.stderr
        assert done.stdout == ("-24691357802*x1*dx1^12345678901"
                               " - 152415787514250888900*dx1^12345678900\n")


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["missing/x", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_one(self, target, tmp_path):
        out = tmp_path / target
        done = run_cli(["critical", "--p", "1", "--q", "1", "--kmax", "2",
                        "--out", str(out)])
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


# arbitrary unicode, and text over the grammar's own characters
FUZZ_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="xtedx0123456789^*/+-() ", max_size=40),
)


class TestExpressionFuzz:
    """Any text given to an expression option exits 0 or 1, or 2 with a
    domain error where a degree cap applies; it never raises."""

    @pytest.mark.parametrize("argv,option", [
        (["affine-quantize", "--p=2", "--q=1", "--lambda=1/3"], "--symbol"),
        (["div", "vfield", "--p=2", "--q=1"], "--field"),
        (["lie", "density", "--p=2", "--q=1", "--lambda=1/2",
          "--field=x1*dx1 + t1*dt1"], "--function"),
        (["lie", "operator", "--p=2", "--q=1", "--lambda=1/3", "--delta=1/5",
          "--field=x1^2*dx1 + t1*dx2 + x2*t1*dt1"], "--operator"),
    ], ids=["affine-quantize", "div-vfield", "lie-density", "lie-operator"])
    @settings(max_examples=100, deadline=None)
    @given(text=FUZZ_TEXT)
    @example(text="x1^99999999999")
    @example(text="dx1^12345678901")
    @example(text="--")
    def test_exit_zero_or_one(self, argv, option, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [f"{option}={text}"])
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("argv,option", [
        (["quantize", "--p=2", "--q=1", "--lambda=1/3", "--delta=1/5"], "--symbol"),
        (["symbol-map", "--p=2", "--q=1", "--lambda=1/3", "--delta=1/5"], "--operator"),
    ], ids=["quantize", "symbol-map"])
    @settings(max_examples=100, deadline=None)
    @given(text=FUZZ_TEXT)
    @example(text="x1^99999999999")
    @example(text="ex1^12345678901")
    @example(text="dx1^12345678901")
    @example(text="--")
    def test_capped_exit_zero_one_or_two(self, argv, option, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [f"{option}={text}"])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("domain error: ")
