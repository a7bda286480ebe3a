"""CLI reports compared byte for byte with committed golden files.

`test_reports_byte_stable` compares two runs of one tree, so it cannot see a
change of format or of digits; these files can.  Each was written by running
`python -m asailab <argv> > <name>.json` inside tests/golden, and is rewritten
the same way only when a report is meant to change.  Every `asailab` example
of README.md's CLI block has one, named after its argv (`readme_...`), apart
from `acceptance`, whose report carries timings.
"""

import json
import re
from pathlib import Path

import pytest

from asailab import cli, eigenform
from asailab.cli import build_parser, main
from asailab.eigenform import discriminant_form_ap
from bench_record import readme_commands
from oracles import strict_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# field-info: both residues of d mod 4, half-integral units (13, 181, 421),
# the non-principal primes above 3 in Q(sqrt 10) and large units (94, 421);
# the Q(sqrt 2)-coefficient form prints exact values and 31-adic ones; the Delta
# base change over Q(sqrt 5) (written by `base-change --d 5 --bound 60 --save`)
# at the split ordinary p = 11, where alpha_P = alpha_Pbar makes
# beta_P alpha_Pbar = 11^11 exactly, the exceptional zero of the
# L(eps_F, s - 11) factor, so (NEZ) fails; Gauss
# sums and r = 1 interpolation factors pin exact cyclotomic reprs (M up to
# 1640) and the digits of their complex embeddings
CASES = {
    **{f"field_info_d{d}": ["field-info", "--d", str(d), "--ell", str(ell)]
       for d, ell in ((2, 7), (3, 11), (5, 11), (10, 3), (13, 3), (94, 3), (181, 3),
                      (421, 3))},
    "form_validate_qsqrt2": ["form-validate", "--form", "qsqrt2_form.json", "--bound", "16"],
    "padic_params_qsqrt2": ["padic-params", "--form", "qsqrt2_form.json", "--p", "31"],
    "padic_params_delta_d5_p11": ["padic-params", "--form", "delta_d5_form.json", "--p", "11"],
    "nez_delta_d5_p11": ["nez", "--form", "delta_d5_form.json", "--p", "11"],
    "gauss_sum_p11_r2": ["gauss-sum", "--p", "11", "--r", "2"],
    "gauss_sum_p2_r4": ["gauss-sum", "--p", "2", "--r", "4", "--eta", "1,1"],
    "gauss_sum_p2_r1": ["gauss-sum", "--p", "2", "--r", "1"],   # (Z/2)^x has no generator
    "pr_factor_p31_r1": ["pr-factor", "--p", "31", "--r", "1", "--alpha-p", "2",
                         "--alpha-q", "3", "--eta", "1", "--j", "1"],
    "pr_factor_p41_r1": ["pr-factor", "--p", "41", "--r", "1", "--a-value", "2", "--eta", "1"],
    "base_change_d5_bound60": ["base-change", "--d", "5", "--bound", "60"],
    **{"readme_" + re.sub(r"\W+", "_", " ".join(argv)).strip("_"): argv
       for argv in readme_commands() if argv[0] != "acceptance"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    # and the report writer gives json.dumps's bytes for the report object
    monkeypatch.chdir(GOLDEN)
    reports, writer = [], cli._json_text

    def spy(obj, *pad):
        if not pad:
            reports.append(obj)
        return writer(obj, *pad)
    monkeypatch.setattr(cli, "_json_text", spy)
    main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
    assert len(reports) == 1
    assert writer(reports[0]) == json.dumps(reports[0], indent=1, sort_keys=True,
                                            allow_nan=False, default=cli._json_default)


def test_goldens_are_strict_json():
    files = sorted(GOLDEN.glob("*.json"))
    assert files
    for path in files:
        strict_json(path.read_text())


def test_every_command_has_a_golden():
    (sub,) = [a for a in build_parser()._actions if a.dest == "cmd"]
    pinned = {argv[0] for argv in CASES.values()}
    assert set(sub.choices) - pinned == {"acceptance"}


def test_delta_form_is_the_saved_base_change(tmp_path, capsys):
    saved = tmp_path / "delta_d5_form.json"
    main(["base-change", "--d", "5", "--bound", "60", "--save", str(saved)])
    assert saved.read_text() == (GOLDEN / "delta_d5_form.json").read_text()


def test_ap_file_gives_the_built_in_base_change(tmp_path, capsys, monkeypatch):
    ap = tmp_path / "ap.json"
    ap.write_text(json.dumps({str(p): str(a) for p, a in discriminant_form_ap(60).items()}))
    monkeypatch.chdir(GOLDEN)
    main(["base-change", "--d", "5", "--bound", "60", "--ap-file", str(ap)])
    assert capsys.readouterr().out == (GOLDEN / "base_change_d5_bound60.json").read_text()


def test_no_state_carries_over_between_commands(capsys, monkeypatch):
    # from an empty tau table, two smaller Delta builds in the same process
    # grow it to 300 and 1000 before the README lfun command continues it
    monkeypatch.setattr(eigenform, "_eta24", [1])
    assert main(["lfun", "--delta", "--d", "2", "--n-cutoff", "300", "--ell-cutoff", "300",
                 "--s", "13"]) == 0
    assert main(["base-change", "--d", "13", "--bound", "1000"]) == 0
    capsys.readouterr()
    name = "readme_lfun_delta_s_14_method_both"
    main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
