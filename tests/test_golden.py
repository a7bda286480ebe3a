"""CLI reports compared byte for byte with committed golden files.

`test_reports_byte_stable` compares two runs of one tree, so it cannot see a
change of format or of digits; these files can.  Each was written by running
`python -m asailab <argv> > <name>.json` inside tests/golden, and is rewritten
the same way only when a report is meant to change.
"""

from pathlib import Path

import pytest

from asailab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# field-info: both residues of d mod 4, half-integral units (13, 181, 421),
# the non-principal primes above 3 in Q(sqrt 10) and large units (94, 421);
# the Q(sqrt 2)-coefficient form prints exact values and 31-adic ones
CASES = {
    **{f"field_info_d{d}": ["field-info", "--d", str(d), "--ell", str(ell)]
       for d, ell in ((2, 7), (3, 11), (5, 11), (10, 3), (13, 3), (94, 3), (181, 3),
                      (421, 3))},
    "form_validate_qsqrt2": ["form-validate", "--form", "qsqrt2_form.json", "--bound", "16"],
    "padic_params_qsqrt2": ["padic-params", "--form", "qsqrt2_form.json", "--p", "31"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
