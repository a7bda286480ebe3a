"""Property tests with hypothesis (optional: skipped when it is not installed)."""

import json
from enum import IntEnum
from fractions import Fraction

import mpmath
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from asailab.arith import is_prime, is_squarefree, primes_up_to  # noqa: E402
from asailab.asairep import (asai_charpoly, asai_charpoly_via_induction,  # noqa: E402
                             charpoly_reversed)
from asailab.cli import _json_default, _json_text  # noqa: E402
from asailab.coeffs import CoefficientField  # noqa: E402
from asailab.eigenform import HilbertEigenform, Weight  # noqa: E402
from asailab.cyclo import CyclotomicValue  # noqa: E402
from asailab.padic import hensel_unit_root, to_padic  # noqa: E402
from asailab.quadfield import (IdealRep, NotPrincipalError, RealQuadraticField,  # noqa: E402
                               find_generator, ideals_of_norm, splitting_type)
from oracles import (asai_charpoly_by_leibniz, check_hyperu_ladder,  # noqa: E402
                     leibniz_charpoly_reversed, shortest_generator_oracle)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def matrices(draw):
    """(A, e): an n x n matrix A, n in {2, 3, 4}, over Z or a real quadratic
    Z[sqrt e] (e = 0 for Z), each entry a pair (x, y) = x + y sqrt(e)."""
    n = draw(st.integers(2, 4))
    e = draw(st.sampled_from([0, 2, 3, 7]))
    coord = st.integers(-60, 60)
    irrational = coord if e else st.just(0)
    return [[(draw(coord), draw(irrational)) for _ in range(n)] for _ in range(n)], e


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_charpoly_equals_leibniz_expansion(case):
    a, e = case
    field = CoefficientField(e or None)
    got = charpoly_reversed(a, e)
    want = leibniz_charpoly_reversed([[field.element(x, y) for x, y in row] for row in a])
    assert [field.element(x, y) for x, y in got] == want


# (r1, r2, t1, t2) with t + t' = 0, 1 and 2
_ASAI_WEIGHTS = [Weight(2, 2, 0, 0), Weight(6, 2, -1, 1), Weight(4, 2, 0, 1),
                 Weight(6, 4, 0, 1), Weight(2, 2, 1, 1), Weight(4, 4, 1, 1)]


@st.composite
def asai_forms(draw):
    """(form, l): a form over Q(sqrt d) known at the primes above one split or
    inert l < 100, lambda(P) over Q or Q(sqrt e) with denominators up to 6, and
    eps(P) = 1, -1 or (over Q(sqrt e)) an irrational value."""
    field = RealQuadraticField(draw(st.sampled_from([2, 3, 5, 13, 17])))
    split = draw(st.booleans())
    ell = draw(st.sampled_from([p for p in primes_up_to(100) if field.disc % p
                                and splitting_type(field, p).is_split == split]))
    cf = CoefficientField(draw(st.sampled_from([None, 2, 3, 5, 7])))
    irrational = rationals if cf.e else st.just(Fraction(0))
    epsilons = [cf.element(1), cf.element(-1)]
    if cf.e:
        epsilons.append(cf.element(draw(rationals), draw(rationals.filter(bool))))
    primes = splitting_type(field, ell).primes
    eig = {p.hnf(): cf.element(draw(rationals), draw(irrational)) for p in primes}
    neb = {p.hnf(): draw(st.sampled_from(epsilons)) for p in primes}
    return HilbertEigenform(field, draw(st.sampled_from(_ASAI_WEIGHTS)), field.maximal_order(),
                            cf, eig, neb), ell


@settings(max_examples=150, deadline=None)
@given(asai_forms())
def test_asai_charpoly_via_induction_equals_leibniz_expansion(case):
    # the integral induced matrix and its rescaling against the Leibniz
    # expansion of the induced matrix over the coefficient field
    form, ell = case
    assert asai_charpoly_via_induction(form, ell) == asai_charpoly_by_leibniz(form, ell)


@settings(max_examples=150, deadline=None)
@given(asai_forms())
def test_asai_charpoly_routes_agree_exactly(case):
    # the Hecke substitution on integer triples against the tensor induction
    form, ell = case
    got, want = asai_charpoly(form, ell), asai_charpoly_via_induction(form, ell)
    assert got == want and got.kind == want.kind


def _small_ideals():
    """(d, HNF) for every ideal of norm < 50 in Q(sqrt d), squarefree d < 60."""
    out = []
    for d in range(2, 60):
        if is_squarefree(d):
            field = RealQuadraticField(d)
            out += [(d, i.hnf()) for n in range(1, 50) for i in ideals_of_norm(field, n)]
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_small_ideals()))
def test_find_generator_matches_lattice_oracle(case):
    d, hnf = case
    field = RealQuadraticField(d)
    ideal = IdealRep(field, *hnf)
    want = shortest_generator_oracle(field, ideal)
    if want is None:
        with pytest.raises(NotPrincipalError):
            find_generator(ideal)
    else:
        assert find_generator(ideal) == want


@st.composite
def ordinary_quadratics(draw):
    """(t, c, p, prec): odd p < 200, prec <= 12, a p-adic unit t and v_p(c) >= 1."""
    p = draw(st.sampled_from([q for q in range(3, 200, 2) if is_prime(q)]))
    prec = draw(st.integers(1, 12))

    def unit():
        n = draw(st.integers(-10 ** 6, 10 ** 6).filter(lambda n: n % p))
        return Fraction(n, draw(st.integers(1, 10 ** 4).filter(lambda n: n % p)))
    c = unit() * p ** draw(st.integers(1, 3))
    return unit(), c, p, prec


@settings(max_examples=200, deadline=None)
@given(ordinary_quadratics())
def test_unit_root_same_for_exact_and_padic_trace(case):
    t, c, p, prec = case
    root = hensel_unit_root(t, c, p, prec)
    assert root == hensel_unit_root(to_padic(t, p, prec), c, p, prec)
    mod = p ** prec
    tm, cm = to_padic(t, p, prec).unit, c.numerator * pow(c.denominator, -1, mod)
    assert root.val == 0 and (root.unit ** 2 - tm * root.unit + cm) % mod == 0


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10 ** 6).filter(bool), st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.integers(1, 30), st.integers(-8, 8))
def test_to_padic_reads_a_rational_exactly(x, p, prec, shift):
    # x p^shift: the valuation by trial division, and x / p^val is the unit mod p^prec
    x *= Fraction(p) ** shift
    got, val, num, den = to_padic(x, p, prec), 0, x.numerator, x.denominator
    while num % p == 0:
        num, val = num // p, val + 1
    while den % p == 0:
        den, val = den // p, val - 1
    unit = x / Fraction(p) ** val
    assert got.val == val and got.prec == prec
    assert (unit.numerator - got.unit * unit.denominator) % p ** prec == 0
    assert got == x


half_integers = st.integers(-5, 4).map(lambda n: n + 0.5)
off_grid = st.integers(-30, 29).map(lambda n: n / 10 + 0.05)
complexes = st.builds(complex, st.integers(2, 30).map(lambda n: n / 10),
                      st.integers(1, 10).map(lambda n: n / 10))


@settings(max_examples=10, deadline=None)
@given(st.one_of(half_integers, off_grid, complexes), st.integers(0, 7),
       st.floats(0.5, 2.5), st.integers(0, 2), st.integers(64, 128))
def test_hyperu_ladder_matches_oracle_everywhere(s, k, y, N, prec):
    check_hyperu_ladder(s, k, y, N, prec)


@st.composite
def cyclotomic_pairs(draw):
    """Two random values of Q(zeta_m), m <= 60, from rational coefficients."""
    m = draw(st.integers(1, 60))
    values = [CyclotomicValue.from_exponents(m, draw(st.dictionaries(
        st.integers(0, m - 1), rationals, max_size=8))) for _ in range(2)]
    return tuple(values)


@settings(max_examples=100, deadline=None)
@given(cyclotomic_pairs())
def test_to_mpc_is_a_ring_embedding(pair):
    x, y = pair
    size = [sum(abs(Fraction(c, v.den)) for c in v.num) + 1
            for v in (x, y, x + y, x * y, x.conjugate())]
    with mpmath.workprec(128):
        ex, ey = x.to_mpc(128), y.to_mpc(128)
        tol = mpmath.mpf(2) ** -100 * (size[0] * size[1] + sum(size[2:]))
        assert abs((x + y).to_mpc(128) - (ex + ey)) < tol
        assert abs((x * y).to_mpc(128) - ex * ey) < tol
        assert abs(x.conjugate().to_mpc(128) - mpmath.conj(ex)) < tol


class _Code(IntEnum):
    """An int subclass with its own repr: json writes int.__repr__ of it."""
    SEVEN = 7


class _Tagged:
    """A value that json knows only through cli._json_default's repr fallback."""

    def __repr__(self):
        return "<tagged \u00e9>"


_json_keys = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(),
                       st.none())
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.fractions(), st.complex_numbers(), st.builds(mpmath.mpf, st.floats()),
    st.builds(CoefficientField(2).element, st.fractions(), st.fractions()),
    st.sampled_from([_Code.SEVEN, _Tagged(), float("nan"), float("-inf")]))
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.tuples(kids, kids),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4),
                           st.dictionaries(_json_keys, kids, max_size=3)),
    max_leaves=24)


def _text_or_error(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_json_trees)
def test_report_writer_is_json_dumps(obj):
    # bytes, or the error type and message, of json's indented encoder
    def dumps(o):
        return json.dumps(o, indent=1, sort_keys=True, allow_nan=False, default=_json_default)
    assert _text_or_error(_json_text, obj) == _text_or_error(dumps, obj)
