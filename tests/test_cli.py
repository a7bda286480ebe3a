import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from asailab.arith import PRIMALITY_LIMIT, is_prime
from asailab.cli import (_tokenise, build_parser, main, parse_complex,
                         parse_hecke_expression)
from asailab import heckealg
from asailab.quadfield import RealQuadraticField
from oracles import strict_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("i") == 1j
    assert parse_complex("2i") == 2j
    assert parse_complex("-i") == -1j
    assert parse_complex("1/2+3/2i") == 0.5 + 1.5j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("-1/4-2i") == -0.25 - 2j


def test_euler_factor_command(capsys):
    code, out, _ = run_cli(capsys, "euler-factor", "--d", "5", "--ell", "3",
                           "--lambda", "5", "--w", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["coefficients"] == ["1", "-5", "0", "45", "-81"]
    assert rep["result"]["agree"] is True
    assert rep["command"] == "euler-factor"
    assert "precision" in rep["provenance"]


def test_kronecker_command_and_exit(capsys):
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "i")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["residual"] < 1e-8


def test_nez_command(capsys):
    code, out, _ = run_cli(capsys, "nez", "--p", "5", "--k", "1", "--kprime", "0",
                           "--alpha-p", "2", "--alpha-q", "3")
    assert code == 0
    assert json.loads(out)["result"]["nez"] is True
    # failing NEZ with --require exits 2
    code, out, _ = run_cli(capsys, "nez", "--p", "5", "--k", "0", "--kprime", "0",
                           "--alpha-p", "2", "--alpha-q", "2", "--require")
    assert code == 2
    assert json.loads(out)["result"]["nez"] is False


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "frobulate")
    assert code == 64
    code, _, err = run_cli(capsys, "euler-factor", "--d", "5")
    assert code == 64
    code, _, _ = run_cli(capsys)
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["gauss-sum", "--p", "5", "--r", "1", "--eta", "1,1"],
    ["pr-factor", "--p", "5", "--r", "1", "--eta", "1,1", "--a-value", "2"],
])
def test_eta_exponent_count_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and not out
    assert json.loads(err) == {"error": "usage",
                               "message": "eta needs 1 exponents for modulus 5"}


@pytest.mark.parametrize("argv", [
    ["lfun", "--delta", "--s", "14", "--n-cutoff", "0", "--method", "dirichlet"],
    ["lfun", "--delta", "--s", "14", "--n-cutoff", "-5"],
    ["lfun", "--delta", "--s", "14", "--ell-cutoff", "0", "--method", "euler"],
    ["lfun", "--delta", "--s", "14", "--bound", "0"],
    ["lfun", "--delta", "--s", "14", "--bound", "-3"],
    ["mellin-check", "--delta", "--n-max", "0"],
    ["mellin-check", "--delta", "--bound", "0"],
    ["eisenstein", "--method", "lattice", "--k", "4", "--alpha", "1/5", "--tau", "i",
     "--cutoff", "-3"],
    ["norm-factor", "--d", "5", "--ell", "3", "--m", "-5", "--lambda", "5"],
    ["constants", "--k", "2", "--kprime", "2", "--j", "1", "--N", "0", "--disc", "8"],
    ["constants", "--k", "2", "--kprime", "2", "--j", "1", "--N", "-2", "--disc", "8"],
    ["constants", "--k", "2", "--kprime", "2", "--j", "1", "--disc", "0"],
    ["constants", "--k", "2", "--kprime", "2", "--j", "1", "--disc", "-3"],
    ["base-change", "--d", "5", "--bound", "0"],
    ["base-change", "--d", "5", "--bound", "-4"],
    ["form-validate", "--form", "form.json", "--bound", "0"],
    ["kronecker-check", "--alpha", "1/5", "--tau", "i", "--terms", "0"],
])
def test_nonpositive_cutoffs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and not out
    assert json.loads(err)["error"] == "usage"
    assert "must be >= 1" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_y_cutoff_must_be_finite_and_positive(capsys, value):
    # -1 made numpy warn on stderr and the report fail on a NaN
    code, out, err = run_cli(capsys, "mellin-check", "--delta", f"--y-cutoff={value}")
    assert code == 64 and not out
    assert json.loads(err) == {
        "error": "usage", "message": f"argument --y-cutoff: must be finite and > 0, got {value}"}


def test_validation_error_exit(capsys):
    # non-squarefree d is a validation failure
    code, _, err = run_cli(capsys, "field-info", "--d", "12")
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_field_info_ell_zero_is_a_validation_error(capsys):
    # ell = 0 reaches the splitting code instead of dropping the splitting block
    code, out, err = run_cli(capsys, "field-info", "--d", "5", "--ell", "0")
    assert code == 1 and not out
    assert json.loads(err) == {"error": "validation", "message": "0 is not prime"}


def test_hypothesis_error_exit(capsys):
    # d=3, ell=11 split but not narrowly principal
    code, _, err = run_cli(capsys, "norm-factor", "--d", "3", "--ell", "11",
                           "--m", "7", "--lambda", "1", "--lambda", "1")
    assert code == 2
    assert json.loads(err)["error"] == "hypothesis"
    # pole of the weight-0 Eisenstein series
    code, _, err = run_cli(capsys, "eisenstein", "--k", "0", "--alpha", "1/5",
                           "--tau", "i", "--s", "1")
    assert code == 2


def test_non_principal_split_prime_is_a_hypothesis_failure(capsys):
    # class number 2: the primes above 3 in Q(sqrt 10) have no generator at all
    code, out, err = run_cli(capsys, "norm-factor", "--d", "10", "--ell", "3",
                             "--m", "7", "--lambda", "1", "--lambda", "1")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "hypothesis"


def test_negative_values_need_no_equals_sign(capsys):
    # a value starting with '-' and a digit or '.' is a value, not an option
    spaced = run_cli(capsys, "eisenstein", "--k", "2", "--alpha", "1/5",
                     "--s", "-1/2", "--tau", "-0.3+0.5i")
    joined = run_cli(capsys, "eisenstein", "--k", "2", "--alpha", "1/5",
                     "--s=-1/2", "--tau=-0.3+0.5i")
    assert spaced[0] == 0 and spaced == joined
    assert json.loads(spaced[1])["inputs"]["s"] == "-1/2"
    code, _, err = run_cli(capsys, "eisenstein", "--k", "2", "--alpha", "1/5", "--tau", "-x")
    assert code == 64 and "expected one argument" in err


def test_norm_factor_fixture(capsys):
    code, out, _ = run_cli(capsys, "norm-factor", "--d", "5", "--ell", "3",
                           "--j", "0", "--m", "5", "--lambda", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["element"] == {"1": "5", "2": "-2", "3": "2", "4": "-5"}


def test_reports_byte_stable(capsys, tmp_path):
    argv = ["constants", "--k", "2", "--kprime", "2", "--j", "1", "--disc", "8"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    # --out writes the same bytes
    path = tmp_path / "r.json"
    run_cli(capsys, "--out", str(path), *argv)
    assert path.read_text() == out1


def test_field_info_command(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--d", "5", "--ell", "11")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["discriminant"] == 5
    assert rep["result"]["splitting"]["kind"] == "split"
    assert len(rep["result"]["splitting"]["totally_positive_generators"]) == 2


@pytest.mark.parametrize("d", [46, 94, 181, 199, 421, 1021])
def test_field_info_large_units(capsys, d):
    field = RealQuadraticField(d)
    ell = next(p for p in range(3, 100) if is_prime(p) and field.splitting_type(p).is_split)
    code, out, _ = run_cli(capsys, "field-info", "--d", str(d), "--ell", str(ell))
    assert code == 0
    unit = json.loads(out)["result"]["fundamental_unit"]
    assert unit["norm"] in (1, -1) and unit["theta1"] > 1
    eps = field.element(Fraction(unit["a"]), Fraction(unit["b"]))
    assert eps.norm() == unit["norm"]


def test_field_info_huge_unit_is_strict_json(capsys):
    # theta1(eps) overflows a float here, so its log is reported instead
    code, out, _ = run_cli(capsys, "field-info", "--d", "100000007")
    assert code == 0
    unit = strict_json(out)["result"]["fundamental_unit"]
    assert "theta1" not in unit
    assert 7674 < unit["log_theta1"] < 7675


@pytest.mark.parametrize("ell, kind", [(10 ** 9 + 7, "inert"), (10 ** 14 + 31, "split")])
def test_field_info_at_a_large_ell(capsys, ell, kind):
    # labelling the primes above ell factorised Nm = ell^2 or ell by trial
    # division: no answer in 60 s (inert) and 2.0 s (split) on 2-core x86
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "field-info", "--d", "5", "--ell", str(ell))
    assert code == 0 and time.perf_counter() - started < 2
    splitting = strict_json(out)["result"]["splitting"]
    assert splitting["kind"] == kind
    assert [p["label"] for p in splitting["primes"]] == (
        [f"{ell * ell}.0"] if kind == "inert" else [f"{ell}.0", f"{ell}.1"])


def test_field_info_non_principal_primes(capsys):
    # class number 2: the primes above 3 in Q(sqrt 10) have no generator
    code, out, _ = run_cli(capsys, "field-info", "--d", "10", "--ell", "3")
    assert code == 0
    assert json.loads(out)["result"]["splitting"]["totally_positive_generators"] == [None, None]


def test_parser_reused_across_calls(capsys):
    assert build_parser() is build_parser()
    code, _, _ = run_cli(capsys, "field-info", "--d", "5")
    assert code == 0
    code, out, err = run_cli(capsys, "field-info", "--ell", "3")
    assert code == 64 and not out and json.loads(err)["error"] == "usage"
    code, _, _ = run_cli(capsys, "field-info", "--d", "5", "--ell", "11")
    assert code == 0


def test_help_prints(capsys):
    for argv in (["--help"], ["field-info", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: asailab" in capsys.readouterr().out


def test_gauss_sum_command(capsys):
    code, out, _ = run_cli(capsys, "gauss-sum", "--p", "5", "--r", "1", "--eta", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["norm_squared"] == "5/1"
    assert abs(rep["result"]["numeric"][0] - 5 ** 0.5) < 1e-10


def test_pr_factor_command(capsys):
    code, out, _ = run_cli(capsys, "pr-factor", "--p", "5", "--j", "0", "--r", "0",
                           "--kprime", "0", "--a-value", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["numeric"][0] == pytest.approx(5 / 6)
    assert rep["result"]["tag"] == "log"


@pytest.mark.parametrize("extra", [["--r", "0"], ["--r", "1", "--eta", "1"]])
def test_pr_factor_zero_eigenvalue_is_a_validation_error(capsys, extra):
    code, out, err = run_cli(capsys, "pr-factor", "--p", "7", "--j", "0", "--kprime", "0",
                             "--a-value", "0", *extra)
    assert code == 1 and not out
    rep = json.loads(err)
    assert rep["error"] == "validation" and "A = 0" in rep["message"]


@pytest.mark.parametrize("argv", [
    ["nez", "--p", "0", "--k", "1", "--kprime", "0", "--alpha-p", "2", "--alpha-q", "3"],
    ["pr-factor", "--p", "0", "--a-value", "2"],
    ["padic-params", "--p", "-5", "--alpha-p", "2", "--alpha-q", "3"],
    ["pr-factor", "--p", "4", "--r", "1", "--a-value", "2", "--eta", "1"],
    ["gauss-sum", "--p", "4", "--r", "1", "--eta", "1"],
])
def test_padic_p_must_be_prime(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert json.loads(err) == {"error": "validation",
                               "message": f"p = {argv[2]} is not prime"}


@pytest.mark.parametrize("argv", [
    ["field-info", "--d", "5", "--ell", str(PRIMALITY_LIMIT)],
    ["padic-params", "--p", str(10 ** 30 + 57), "--alpha-p", "2", "--alpha-q", "3"],
])
def test_primes_past_the_primality_limit_are_validation_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    rep = json.loads(err)
    assert rep["error"] == "validation" and str(PRIMALITY_LIMIT) in rep["message"]


def test_padic_p_one_exits_instead_of_hanging():
    # p = 1 made the p-adic valuation loop forever, so run it where it can be killed
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "asailab", "nez", "--p", "1", "--k", "1",
                           "--kprime", "0", "--alpha-p", "2", "--alpha-q", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert json.loads(proc.stderr) == {"error": "validation", "message": "p = 1 is not prime"}


@pytest.mark.parametrize("labels", ['[1,2]', '{"l1": 5}', '"l1"', '{"l1": [11]}'])
def test_hecke_labels_of_the_wrong_shape_are_validation_errors(capsys, labels):
    code, out, err = run_cli(capsys, "hecke-identity", "--expr", "T(l1)", "--labels", labels)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "validation"
    assert "object of objects" in json.loads(err)["message"]


def test_hecke_identity_command(capsys):
    labels = json.dumps({"l1": {"norm": 11}, "l1b": {"norm": 11}})
    code, out, _ = run_cli(
        capsys, "hecke-identity",
        "--expr", "T(l1)^2*T(l1b)^2 - T(l1^2*l1b^2) - 11^2*S(l1*l1b)",
        "--expr2", "11*D(l1)*R(l1)*T(l1b)^2 + 11*D(l1b)*R(l1b)*T(l1)^2"
                   " - 2*11^2*D(l1*l1b)*R(l1*l1b)",
        "--labels", labels)
    rep = json.loads(out)
    assert code == 0 and rep["result"]["equal"] is True
    code, out, _ = run_cli(capsys, "hecke-identity", "--expr", "T(l1)",
                           "--expr2", "T(l1b)", "--labels", labels)
    assert code == 2


def test_unary_minus_binds_looser_than_power(capsys):
    # -T(l1)^2 was read as (-T(l1))^2 = T(l1)^2
    code, out, _ = run_cli(capsys, "hecke-identity", "--expr=-T(l1)^2", "--expr2=T(l1)^2",
                           "--labels", '{"l1": {"norm": 11}}')
    rep = json.loads(out)["result"]
    assert code == 2 and rep["equal"] is False
    assert rep["normal_form"] == "-1*T(l1)^2"


LABELS = '{"l1": {"norm": 11}}'


@pytest.mark.parametrize("argv, code, label, message", [
    (["hecke-identity", "--expr", "(" * 400 + "T(l1)" + ")" * 400, "--labels", LABELS],
     1, "validation", "expression nested too deeply"),
    (["hecke-identity", "--expr", "T(l1)", "--labels", "[" * 3000 + "]" * 3000],
     1, "validation", "--labels is nested too deeply"),
    (["eisenstein", "--k", "2", "--alpha", "1/5", "--tau", "1e400i"],
     64, "usage", "complex literal '1e400i' is past the double range"),
    *((["hecke-identity", "--expr", "T(l1)", "--labels", labels], 1, "validation",
       "prime label l1 needs an integer norm, a boolean unit and a string or null conj")
      for labels in ('{"l1": {"norm": 1e400}}', '{"l1": {"norm": 11.5}}',
                     '{"l1": {"norm": 11, "unit": "no"}}')),
    *((["eisenstein", "--k", k, "--alpha", "1/5", "--tau", "i", "--s", s, "--method", "lattice",
        "--cutoff", "60"], 1, "validation",
       f"lattice sum at k={k}, s={value} overflows double precision")
      for k, s, value in (("200", "1/2", 0.5), ("2", "400", 400.0))),
], ids=["nested-parentheses", "nested-labels", "tau-overflow",
        "label-norm-overflow", "label-norm-fraction", "label-unit-string",
        "lattice-gamma-overflow", "lattice-power-overflow"])
@pytest.mark.filterwarnings("error")   # nothing from numpy on the way
def test_hostile_input_ends_in_a_json_error(capsys, argv, code, label, message):
    # each of these ended in an uncaught RecursionError or OverflowError, or
    # (a fractional norm, a string unit) was read as something else, or (a
    # lattice value past the double range) in numpy warnings and a NaN message
    got, out, err = run_cli(capsys, *argv)
    assert got == code and not out
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": label, "message": message}


def test_ap_file_must_be_an_object(capsys, tmp_path):
    # a JSON array ended in an AttributeError traceback
    path = tmp_path / "ap.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "base-change", "--d", "5", "--ap-file", str(path))
    assert code == 1 and not out
    assert json.loads(err) == {"error": "validation", "message":
                               '--ap-file must be a JSON object of a_p values, e.g. {"2": "-24"}'}


def test_grammar_parser():
    labels = {"l1": heckealg.PrimeLabel("l1", 11), "l1b": heckealg.PrimeLabel("l1b", 11)}
    expr = parse_hecke_expression("T(l1)^2 - T(l1^2) - 11*D(l1)*R(l1)", labels)
    # T(l1)^2 - (T(l1)^2 - 11 S(l1)) - 11 S(l1) = 0
    assert expr.normalize() == heckealg.HeckePolynomial()
    with pytest.raises(heckealg.HeckeAlgError):
        parse_hecke_expression("T(xx)", labels)
    with pytest.raises(heckealg.HeckeAlgError):
        parse_hecke_expression("T(l1", labels)
    with pytest.raises(heckealg.HeckeAlgError, match=r"stray character '\$'"):
        parse_hecke_expression("T(l1)\t+ 2 $ 3", labels)
    assert _tokenise(" 11/2*T(l1^2)-x_y2\n") == \
        ["11/2", "*", "T", "(", "l1", "^", "2", ")", "-", "x_y2"]


def test_mellin_command(capsys):
    code, out, _ = run_cli(capsys, "mellin-check", "--delta", "--d", "5",
                           "--bound", "300", "--sprime", "14", "--n-max", "200")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["relative_residual"] < 1e-4


def test_lfun_command(capsys):
    code, out, _ = run_cli(capsys, "lfun", "--delta", "--bound", "600",
                           "--s", "14", "--n-cutoff", "600", "--ell-cutoff", "200")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["relative_difference"] < 1e-4


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ASAILAB_PRECISION", "96")
    code, out, _ = run_cli(capsys, "constants", "--k", "0", "--kprime", "0",
                           "--j", "0", "--disc", "5")
    rep = json.loads(out)
    assert rep["provenance"]["precision"] == 96


def test_form_validate_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "base-change", "--d", "5", "--bound", "60",
                           "--save", str(tmp_path / "f.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "form-validate", "--form", str(tmp_path / "f.json"),
                           "--bound", "50")
    rep = json.loads(out)
    assert code == 0 and rep["result"]["valid"] is True
