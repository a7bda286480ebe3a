"""Cyclotomic polynomials against long division, and the canonical value form."""

from fractions import Fraction

import pytest

from asailab.cyclo import CyclotomicValue, cyclotomic_polynomial
from oracles import cyclotomic_polynomial_by_division


@pytest.mark.parametrize("ms", [range(1, 401), (930, 1640, 2310)], ids=["m<=400", "large"])
def test_phi_matches_long_division(ms):
    for m in ms:
        assert cyclotomic_polynomial(m) == cyclotomic_polynomial_by_division(m), m


def test_values_are_canonical():
    # Phi_6 = x^2 - x + 1: zeta^3 = -1 and zeta^2 = zeta - 1
    half = CyclotomicValue.from_exponents(6, {3: Fraction(2, 4)})
    assert (half.num, half.den) == ((-1, 0), 2)
    assert half == Fraction(-1, 2) and half.rational_value() == Fraction(-1, 2)
    same = CyclotomicValue(6, [2], -4)
    assert same == half and hash(same) == hash(half)
    v = CyclotomicValue(6, [0, 0, 3], 6)
    assert (v.num, v.den) == ((-1, 1), 2)
    assert v == CyclotomicValue.from_exponents(6, {0: Fraction(-1, 2), 1: Fraction(1, 2)})
    assert repr(v) == "-1/2*z^0 + 1/2*z^1"
    assert v - v == 0 and repr(v - v) == "0" and (v - v).den == 1
    with pytest.raises(ArithmeticError):
        v.rational_value()
    with pytest.raises(ArithmeticError):
        v + CyclotomicValue(5, [1])
