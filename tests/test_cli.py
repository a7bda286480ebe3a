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
from asailab import cli, heckealg
from asailab.asairep import AsaiCharPoly
from asailab.quadfield import RealQuadraticField, splitting_type
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


def test_euler_factor_exits_2_when_the_routes_disagree(capsys, monkeypatch):
    # the report still carries both coefficient lists
    induced = cli.asai_charpoly_via_induction

    def off_by_one(form, ell):
        *head, last = induced(form, ell).coeffs
        return AsaiCharPoly([*head, last + 1], "inert")
    monkeypatch.setattr(cli, "asai_charpoly_via_induction", off_by_one)
    code, out, _ = run_cli(capsys, "euler-factor", "--d", "5", "--ell", "3", "--lambda", "5")
    assert code == 2
    res = json.loads(out)["result"]
    assert res["agree"] is False
    assert res["coefficients"] == ["1", "-5", "0", "45", "-81"]
    assert res["tensor_induction_coefficients"] == ["1", "-5", "0", "45", "-80"]


@pytest.mark.parametrize("command", [["euler-factor"], ["norm-factor", "--m", "5"]])
@pytest.mark.parametrize("eps", ["x", "0", "2"])
def test_eps_other_than_plus_or_minus_one_is_a_usage_error(capsys, command, eps):
    code, out, err = run_cli(capsys, *command, "--d", "5", "--ell", "3", "--lambda", "5",
                             "--eps", eps)
    assert code == 64 and not out
    err = json.loads(err)
    assert err["error"] == "usage" and err["message"].startswith("argument --eps: ")


def test_eps_minus_one_is_recorded_in_the_inputs(capsys):
    # eps = -1 flips the X^3 coefficient 9 eps lambda of the inert factor
    # (1 - 5X + 9 eps X^2)(1 - 9 eps X^2), and only then do the inputs name eps
    code, out, _ = run_cli(capsys, "euler-factor", "--d", "5", "--ell", "3", "--lambda", "5",
                           "--eps", "-1")
    rep = json.loads(out)
    assert code == 0 and rep["inputs"]["eps"] == -1
    assert rep["result"]["coefficients"] == ["1", "-5", "0", "-45", "-81"]
    code, out, _ = run_cli(capsys, "norm-factor", "--d", "5", "--ell", "3", "--lambda", "5",
                           "--m", "5", "--eps", "-1")
    assert code == 0 and json.loads(out)["inputs"]["eps"] == -1
    for argv in (["euler-factor"], ["norm-factor", "--m", "5"]):
        _, out, _ = run_cli(capsys, *argv, "--d", "5", "--ell", "3", "--lambda", "5",
                            "--eps", "1")
        assert "eps" not in json.loads(out)["inputs"]


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


@pytest.mark.parametrize("eta", [[], ["--eta", ""]])
def test_pr_factor_at_modulus_2_reads_no_exponents(capsys, eta):
    # (Z/2)^x has no generator: a missing or empty --eta is the one character,
    # whose Gauss sum is -1; one exponent there is still a usage error
    code, out, _ = run_cli(capsys, "pr-factor", "--p", "2", "--r", "1", "--a-value", "3", *eta)
    rep = json.loads(out)
    assert code == 0 and rep["result"]["gauss_inverse"] == "-1*z^0"
    code, out, err = run_cli(capsys, "pr-factor", "--p", "2", "--r", "1", "--a-value", "3",
                             "--eta", "0")
    assert code == 64 and not out
    assert json.loads(err)["message"] == "eta needs 0 exponents for modulus 2"


@pytest.mark.parametrize("argv", [
    ["lfun", "--delta", "--s", "14", "--n-cutoff", "0", "--method", "dirichlet"],
    ["lfun", "--delta", "--s", "14", "--n-cutoff", "-5"],
    ["lfun", "--delta", "--s", "14", "--ell-cutoff", "0", "--method", "euler"],
    ["lfun", "--delta", "--s", "14", "--ell-cutoff", "-3"],
    ["lfun", "--delta", "--s", "14", "--n-cutoff", "0", "--method", "both"],
    ["mellin-check", "--delta", "--n-max", "0"],
    ["mellin-check", "--delta", "--n-max", "-2"],
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


def test_lattice_cutoff_over_its_limit_is_a_usage_error(capsys, monkeypatch):
    # the lattice's time grows as cutoff^2: 2500 is about 2 s at most, and a
    # larger cutoff is refused by the parser, before any lattice term is summed
    monkeypatch.setattr("asailab.cli.eisenstein_lattice_sum", lambda *a: pytest.fail("summed"))
    argv = ["eisenstein", "--method", "lattice", "--k", "4", "--alpha", "1/5", "--tau", "i"]
    code, out, err = run_cli(capsys, *argv, "--cutoff", "2501")
    assert code == 64 and not out
    assert json.loads(err) == {"error": "usage",
                               "message": "argument --cutoff: must be <= 2500, got 2501"}
    code, out, _ = run_cli(capsys, *argv[:2], "continued", *argv[3:], "--cutoff", "2500")
    assert code == 0 and json.loads(out)["provenance"]["cutoffs"] == {"cutoff": 2500}


def test_kronecker_terms_past_the_working_precision_cost_nothing(capsys):
    # the Siegel product stops once |q^n| < 2^-2P, so a billion terms at
    # Im tau = 1 end as fast as 200, with the same result
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "i",
                           "--terms", "1000000000")
    assert code == 0 and time.perf_counter() - started < 2
    code200, out200, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "i",
                                 "--terms", "200")
    big, small = json.loads(out), json.loads(out200)
    assert code200 == 0 and big["result"] == small["result"]
    assert big["provenance"].pop("cutoffs") == {"terms": 1000000000}
    assert small["provenance"].pop("cutoffs") == {"terms": 200}
    assert big == small


def test_continuation_at_the_im_tau_limit(capsys):
    # the continuation runs 9.8 / Im tau Fourier levels: Im tau = 1/300 is
    # accepted, and the Kronecker-limit identity holds there; the lattice's
    # cost depends on --cutoff alone, so it takes any Im tau > 0
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "3/10+1/300i",
                           "--terms", "1000000000")
    assert code == 0 and json.loads(out)["result"]["passes"]
    code, out, _ = run_cli(capsys, "eisenstein", "--method", "lattice", "--k", "4", "--alpha",
                           "1/5", "--tau", "3/10+1/1000000i", "--cutoff", "10")
    assert code == 0


def test_kronecker_default_terms_cover_the_working_precision(capsys):
    # at Im tau = 1/300 the product keeps the factors n < 1 + P ln 2 / (pi Im tau)
    # = 5,296 at P = 80 bits (64 and 16 guard bits); the default cap takes
    # them all and reports it, while an explicit --terms stays a cap
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "3/10+1/300i")
    rep = json.loads(out)
    assert code == 0 and rep["result"]["residual"] < 1e-8
    assert rep["provenance"]["cutoffs"] == {"terms": 5296}
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "3/10+1/300i",
                           "--terms", "200")
    assert code == 2 and json.loads(out)["provenance"]["cutoffs"] == {"terms": 200}


def test_im_tau_limit_follows_the_precision(capsys, precision):
    # (P + 25) / 26700 keeps the Fourier levels as at 1/300 and 64 bits: at
    # 128 bits 1/300 is refused, and the limit 153/26700 = 51/8900 accepted
    precision(128)
    code, out, err = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau", "3/10+1/300i",
                             "--terms", "1000000000")
    assert code == 64 and not out
    assert json.loads(err) == {"error": "usage", "message":
                               "--tau: Im tau must be >= 51/8900 for the continuation, "
                               "got 0.00333333"}
    code, out, _ = run_cli(capsys, "kronecker-check", "--alpha", "1/5", "--tau",
                           "3/10+153/26700i", "--terms", "1000000000")
    assert code == 0 and json.loads(out)["result"]["passes"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_y_cutoff_must_be_finite_and_positive(capsys, value):
    # -1 made numpy warn on stderr and the report fail on a NaN
    code, out, err = run_cli(capsys, "mellin-check", "--delta", f"--y-cutoff={value}")
    assert code == 64 and not out
    assert json.loads(err) == {
        "error": "usage", "message": f"argument --y-cutoff: must be finite and > 0, got {value}"}


@pytest.mark.parametrize("value", ["1e-6", "1e-300"])
def test_y_cutoff_that_drops_the_integral_is_a_validation_error(capsys, value):
    # these cutoffs left out nearly the whole integral and still exited 0,
    # with "relative_residual": 1.0 (and "lhs": 0.0 at 1e-300)
    code, out, err = run_cli(capsys, "mellin-check", "--delta", f"--y-cutoff={value}")
    assert code == 1 and not out
    report = json.loads(err)
    assert report["error"] == "validation"
    assert report["message"].startswith(f"y_cutoff = {float(value):g} leaves out up to")


def test_mellin_coefficient_past_the_double_range_is_a_validation_error(capsys, tmp_path):
    # t + t' = -1200 makes alpha(2) = 2^1200 lambda((2)), which no double holds
    form = tmp_path / "form.json"
    form.write_text(json.dumps({
        "d": 5, "weight": [2, 2, -600, -600], "level": {"hnf": [1, 0, 1]},
        "coefficient_field": {"type": "Q"}, "eigenvalues": [{"ideal": "4.0", "lambda": "1"}]}))
    code, out, err = run_cli(capsys, "mellin-check", "--form", str(form), "--n-max", "2")
    assert code == 1 and not out
    assert json.loads(err) == {"error": "validation",
                               "message": "an alpha(n) is past the double range"}


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
    ell = next(p for p in range(3, 100) if is_prime(p) and splitting_type(field, p).is_split)
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
    ["gauss-sum", "--p", "8", "--r", "1"],   # checked before --eta's count
    ["pr-factor", "--p", "8", "--r", "1", "--a-value", "2"],
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
       "prime label l1 needs an integer norm and a boolean unit")
      for labels in ('{"l1": {"norm": 1e400}}', '{"l1": {"norm": 11.5}}',
                     '{"l1": {"norm": 11, "unit": "no"}}')),
    *((["eisenstein", "--k", k, "--alpha", "1/5", "--tau", "i", "--s", s, "--method", "lattice",
        "--cutoff", "60"], 1, "validation",
       f"lattice sum at k={k}, s={value} overflows double precision")
      for k, s, value in (("200", "1/2", 0.5), ("2", "400", 400.0))),
    *(([cmd, *args, "--alpha", "1/5", "--tau", tau], 64, "usage",
       "--tau: Im tau must be >= 1/300 for the continuation, got 1e-06")
      for cmd, tau, args in (("eisenstein", "3/10+1/1000000i", ["--k", "2"]),
                             ("kronecker-check", "1/1000000i", ["--terms", "1000000000"]))),
    *(([f"ASAILAB_PRECISION={bits}", "field-info", "--d", "5"], 64, "usage",
       f"ASAILAB_PRECISION must be an integer from 24 to 192, got '{bits}'")
      for bits in ("abc", "10", "193")),
    *((["mellin-check", "--delta", "--d", "5", f"--sprime={sprime}"], 1, "validation",
       f"rhs at s' = {sprime} is past the double range") for sprime in ("172", "1000")),
    *((["mellin-check", "--delta", "--d", "5", f"--sprime={sprime}"], 1, "validation",
       f"need a finite s', got {sprime}") for sprime in ("nan", "inf")),
], ids=["nested-parentheses", "nested-labels", "tau-overflow",
        "label-norm-overflow", "label-norm-fraction", "label-unit-string",
        "lattice-gamma-overflow", "lattice-power-overflow",
        "continuation-tiny-im-tau", "kronecker-tiny-im-tau",
        "precision-not-an-integer", "precision-below-24", "precision-above-limit",
        "mellin-gamma-overflow", "mellin-huge-sprime", "mellin-nan-sprime", "mellin-inf-sprime"])
@pytest.mark.filterwarnings("error")   # nothing from numpy on the way
def test_hostile_input_ends_in_a_json_error(capsys, monkeypatch, argv, code, label, message):
    # each of these ended in an uncaught RecursionError or OverflowError, or
    # (a fractional norm, a string unit) was read as something else, or (a
    # lattice value past the double range) in numpy warnings and a NaN
    # message, or (ASAILAB_PRECISION) ran at 64 or 24 bits or without end,
    # or (a non-finite s') was named as a NaN tail
    if "=" in argv[0]:   # a leading NAME=value sets the environment, as in a shell
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    got, out, err = run_cli(capsys, *argv)
    assert got == code and not out
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": label, "message": message}


@pytest.mark.parametrize("argv, message", [
    (["constants", "--k", "3", "--kprime", "2", "--j", "1", "--N", "1", "--disc", "8"],
     "need k = k' mod 2, got k - k' = 1"),
    (["constants", "--k", "2", "--kprime", "3", "--j", "1", "--disc", "8"],
     "need k = k' mod 2, got k - k' = -1"),
    (["hecke-identity", "--expr", "1/0"], "zero denominator in '1/0'"),
    (["hecke-identity", "--expr", "T(l1)^-1", "--labels", LABELS],
     "exponent '-' is not a non-negative integer"),
    (["hecke-identity", "--expr", "T(l1^2/3)", "--labels", LABELS],
     "exponent '2/3' is not a non-negative integer"),
], ids=["constants-odd-k-minus-kprime", "constants-odd-kprime-minus-k", "expr-zero-denominator",
        "expr-negative-exponent", "label-fractional-exponent"])
def test_refused_input_exits_1_with_strict_json(capsys, argv, message):
    # odd k - k' was reported as a real constant, its factor i dropped; 1/0
    # ended in a ZeroDivisionError traceback; a bad exponent was named by int()
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out and err.count("\n") == 1
    assert strict_json(err) == {"error": "validation", "message": message}


def test_labels_ignore_unknown_keys(capsys):
    # "conj" was stored on the label and never read; now it is ignored like any other key
    runs = [run_cli(capsys, "hecke-identity", "--expr", "T(l1)^2", "--labels", labels)
            for labels in (LABELS, '{"l1": {"norm": 11, "conj": "l1b"}}')]
    assert [code for code, _, _ in runs] == [0, 0]
    assert len({json.loads(out)["result"]["normal_form"] for _, out, _ in runs}) == 1


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


@pytest.mark.parametrize("argv", [["lfun", "--s", "14"], ["mellin-check", "--sprime", "14"]])
def test_delta_form_takes_no_bound(capsys, argv):
    # the --delta form is built up to the largest cutoff the command reads
    code, out, err = run_cli(capsys, *argv, "--delta", "--bound", "600")
    assert code == 64 and not out
    assert json.loads(err) == {"error": "usage", "message": "unrecognized arguments: --bound 600"}


def test_mellin_command(capsys):
    code, out, _ = run_cli(capsys, "mellin-check", "--delta", "--d", "5",
                           "--sprime", "14", "--n-max", "200")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["relative_residual"] < 1e-4


def test_lfun_command(capsys):
    code, out, _ = run_cli(capsys, "lfun", "--delta",
                           "--s", "14", "--n-cutoff", "600", "--ell-cutoff", "200")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["relative_difference"] < 1e-4


def test_lfun_at_a_huge_real_s_is_one(capsys):
    # l^{-s} = M 2^-E with E near 10^31: every Euler factor is 1 to the last
    # unit, and neither route builds a power of it
    code, out, _ = run_cli(capsys, "lfun", "--delta", "--n-cutoff", "300",
                           "--ell-cutoff", "200", "--s", "1e30", "--method", "both")
    rep = strict_json(out)
    assert code == 0
    assert rep["result"]["dirichlet"]["value"] == [1.0, 0.0]
    assert rep["result"]["euler_product"]["value"] == [1.0, 0.0]


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
