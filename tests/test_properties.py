"""Property tests with hypothesis (optional: skipped when it is not installed)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from asailab.asairep import charpoly_reversed  # noqa: E402
from asailab.coeffs import CoefficientField  # noqa: E402
from oracles import leibniz_charpoly_reversed  # noqa: E402

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def matrices(draw):
    """An n x n matrix, n in {2, 3, 4}, over Q or a real quadratic Q(sqrt e)."""
    n = draw(st.integers(2, 4))
    field = CoefficientField(draw(st.sampled_from([None, 2, 3, 7])))
    irrational = rationals if field.e else st.just(Fraction(0))
    return [[field.element(draw(rationals), draw(irrational)) for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_charpoly_equals_leibniz_expansion(a):
    got = charpoly_reversed(a)
    want = leibniz_charpoly_reversed(a)
    assert len(got) == len(want)
    assert all(x == y for x, y in zip(got, want))
