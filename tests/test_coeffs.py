import operator
from fractions import Fraction

import pytest

from asailab.coeffs import (CoefficientError, CoefficientField, QuadElt,
                            format_rational, parse_rational)


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
    with pytest.raises(CoefficientError):
        parse_rational("1/0")
    with pytest.raises(CoefficientError):
        parse_rational("x")


def test_field_descriptor():
    q = CoefficientField(None)
    assert q.is_rational
    q2 = CoefficientField(2)
    assert not q2.is_rational
    with pytest.raises(CoefficientError):
        CoefficientField(4)  # not squarefree
    with pytest.raises(CoefficientError):
        CoefficientField(1)
    assert CoefficientField.from_json({"type": "Qsqrt", "e": 5}).e == 5
    assert CoefficientField.from_json(q.to_json()) == q


def test_quad_arithmetic():
    f = CoefficientField(2)
    x = f.element(1, 1)          # 1 + sqrt2
    y = f.element(3, -2)
    assert x * y == f.element(3 - 4, 3 - 2)  # (1+s)(3-2s) = 3 - 2s + 3s - 4
    assert x.norm() == -1
    assert x.conjugate() * x == f.element(x.norm())
    assert (x / y) * y == x
    assert x ** 3 == x * x * x
    assert (x ** -2) * x ** 2 == 1
    assert float(x) == pytest.approx(1 + 2 ** 0.5)


def test_parse_value_schema():
    f = CoefficientField(2)
    v = f.parse_value({"a": "1/2", "b": "-3"})
    assert v == f.element(Fraction(1, 2), -3)
    assert f.parse_value("5/7") == f.element(Fraction(5, 7))
    q = CoefficientField(None)
    with pytest.raises(CoefficientError):
        q.parse_value({"a": "1", "b": "1"})
    roundtrip = f.parse_value(v.to_json())
    assert roundtrip == v


def test_mixed_field_rejected():
    a = CoefficientField(2).element(0, 1)
    b = CoefficientField(3).element(0, 1)
    with pytest.raises(CoefficientError):
        _ = a * b


def test_rational_value_over_q_combines_in_either_order():
    # Q lies in every Q(sqrt e): 2 over Q acts as 2 over Q(sqrt 2) on either side
    f = CoefficientField(2)
    two, s = QuadElt(2), f.element(0, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(two, s) == op(f.element(2), s)
        assert op(s, two) == op(s, f.element(2))
