import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from asailab.arith import is_squarefree
from asailab.quadfield import (IdealRep, NotPrincipalError, QuadFieldError,
                               RealQuadraticField, discriminant, find_generator,
                               fundamental_unit, ideal_from_label, ideal_label,
                               ideals_of_norm, prime_powers, splitting_type,
                               totally_positive_generator)
from oracles import (ideal_factor_by_valuation, ideal_power, legendre_symbol,
                     naive_totally_positive_search, pell_fundamental_unit,
                     shortest_generator_oracle)


def test_discriminant_examples():
    # oracle: disc of the minimal polynomial of omega
    # d=5: x^2 - x - 1 -> 1 + 4 = 5;  d=3: x^2 - 3 -> 12
    assert discriminant(5) == 5
    assert discriminant(3) == 12
    with pytest.raises(QuadFieldError):
        discriminant(1)
    with pytest.raises(QuadFieldError):
        discriminant(12)  # not squarefree
    with pytest.raises(QuadFieldError):
        discriminant(-3)


def test_splitting_examples():
    f5 = RealQuadraticField(5)
    assert legendre_symbol(5, 11) == 1
    assert splitting_type(f5, 11).is_split
    assert splitting_type(f5, 5).is_ramified
    assert legendre_symbol(5, 3) == -1
    assert splitting_type(f5, 3).is_inert
    with pytest.raises(QuadFieldError):
        splitting_type(f5, 6)


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_splitting_trichotomy_matches_legendre(d):
    field = RealQuadraticField(d)
    for ell in range(3, 1000, 2):
        if any(ell % q == 0 for q in range(2, math.isqrt(ell) + 1)):
            continue
        if field.disc % ell == 0:
            assert splitting_type(field, ell).is_ramified
            continue
        st = splitting_type(field, ell)
        sym = legendre_symbol(field.disc % ell, ell)
        assert st.is_split == (sym == 1)
        assert st.is_inert == (sym == -1)
        for p in st.primes:
            assert p.norm() in (ell, ell * ell)


@pytest.mark.parametrize("d,expected_norm", [(5, -1), (3, 1), (2, -1), (13, -1), (7, 1)])
def test_fundamental_unit(d, expected_norm):
    field = RealQuadraticField(d)
    unit, nrm = fundamental_unit(field)
    assert nrm == expected_norm
    assert unit.norm() == nrm
    theta, a, b, norm_oracle = pell_fundamental_unit(d)
    assert norm_oracle == nrm
    assert abs(float(unit) - theta) < 1e-9


def test_fundamental_unit_values():
    f5 = RealQuadraticField(5)
    u5, _ = fundamental_unit(f5)
    assert u5 == f5.element(0, 1)  # omega = (1+sqrt5)/2
    f3 = RealQuadraticField(3)
    u3, _ = fundamental_unit(f3)
    assert u3 == f3.element(2, 1)  # 2 + sqrt3
    f2 = RealQuadraticField(2)
    u2, _ = fundamental_unit(f2)
    assert u2 == f2.element(1, 1)  # 1 + sqrt2


def _unit_over_sqrt_d(d):
    """The fundamental unit as (x, y, norm) with eps = x + y sqrt(d), halved
    when d = 1 mod 4 (the form pell_fundamental_unit returns)."""
    field = RealQuadraticField(d)
    unit, nrm = fundamental_unit(field)
    assert unit.norm() == nrm and unit.sign_theta1() > 0 and (unit - 1).sign_theta1() > 0
    a, b = map(int, field.omega_coords(unit))
    return (2 * a + b if d % 4 == 1 else a), b, nrm


def test_fundamental_unit_matches_pell_oracle():
    reached = []
    for d in range(2, 300):
        if not is_squarefree(d):
            continue
        try:
            _, a, b, nrm = pell_fundamental_unit(d, 3000)
        except AssertionError:
            continue  # the unit's sqrt(d)-coefficient is 3000 or more
        assert _unit_over_sqrt_d(d) == (a, b, nrm), d
        reached.append(d)
    assert len(reached) == 143 and 181 in reached


def test_fundamental_unit_large_regulators():
    # (1305 + 97 sqrt 181)/2, whose Z[sqrt 181] multiple is past 10^6
    f = RealQuadraticField(181)
    unit, nrm = fundamental_unit(f)
    assert (unit, nrm) == (f.element(Fraction(1305 - 97, 2), 97), -1)
    for d in (421, 1021):
        unit, nrm = fundamental_unit(RealQuadraticField(d))
        assert nrm in (1, -1) and unit.norm() == nrm
        assert (unit - 1).sign_theta1() > 0


@pytest.mark.parametrize("d", [139, 151, 163, 166, 199, 211, 214])
def test_fundamental_unit_matches_sympy(d):
    # units past the reach of the Pell oracle, all with d = 2, 3 mod 4: the
    # least solution of x^2 - d y^2 = -1 when there is one, else of = +1
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for n in (-1, 1):
        sols = diophantine.diop_DN(d, n)
        if sols:
            (x, y), = sols
            break
    assert _unit_over_sqrt_d(d) == (x, y, n)


@pytest.mark.parametrize("d", [5, 3])
def test_fundamental_unit_minimality(d):
    # no unit v with 1 < theta1(v) < theta1(u): brute force below the found bound
    field = RealQuadraticField(d)
    unit, _ = fundamental_unit(field)
    bound = float(unit)
    for b in range(-8, 9):
        for a in range(-20, 21):
            x = field.element(a, b)
            if x.norm() in (1, -1) and 1.0 + 1e-12 < float(x) < bound - 1e-12:
                raise AssertionError(f"smaller unit {x} found")


def test_norm_multiplicativity_random():
    rng = random.Random(42)
    field = RealQuadraticField(5)
    ideals = []
    for n in range(1, 60):
        ideals.extend(ideals_of_norm(field, n))
    for _ in range(500):
        a, b = rng.choice(ideals), rng.choice(ideals)
        assert (a * b).norm() == a.norm() * b.norm()


@pytest.mark.parametrize("d", [2, 3, 5, 10, 13])
def test_ideal_arithmetic_matches_the_element_route(d):
    # the HNF-coordinate product and divisibility against the
    # ideals that QuadElt generators n, m + g*omega of the factors generate,
    # on both residues of d mod 4 and class numbers 1 and 2 (d = 10)
    f = RealQuadraticField(d)
    ideals = [i for n in range(1, 60) for i in ideals_of_norm(f, n)]
    gens = {i: (f.element(i.n), f.element(i.m, i.g)) for i in ideals}
    for i in ideals:
        for j in ideals:
            assert i * j == f.ideal(*(x * y for x in gens[i] for y in gens[j]))
            assert i.divides(j) == (f.ideal(*gens[i], *gens[j]) == i)


def test_ideal_from_elements_rejects_zero_and_non_integral():
    f5 = RealQuadraticField(5)
    with pytest.raises(QuadFieldError, match="zero ideal"):
        f5.ideal(0, f5.element(0))
    with pytest.raises(QuadFieldError, match="not integral"):
        f5.ideal(f5.element(Fraction(1, 2)))
    assert f5.ideal(Fraction(4, 2), 3) == f5.maximal_order()


def test_totally_positive_generator_examples():
    f5 = RealQuadraticField(5)
    p11 = f5.primes_above(11)[0]
    g = totally_positive_generator(p11)
    assert g is not None and g.is_totally_positive() and f5.ideal(g) == p11
    assert naive_totally_positive_search(f5, p11) is not None
    # (1 + sqrt3) over d=3: norm -2 and unit norm +1, so no fix exists
    f3 = RealQuadraticField(3)
    i = f3.ideal(f3.element(1, 1))
    assert (f3.element(1, 1)).norm() == -2
    assert totally_positive_generator(i) is None
    assert naive_totally_positive_search(f3, i) is None
    # identity
    assert totally_positive_generator(f5.maximal_order()) == f5.element(1)


def test_unit_norm_minus_one_gives_tpg_everywhere():
    # d=5 has a norm -1 unit: every principal ideal of norm < 200 has a
    # totally positive generator
    f5 = RealQuadraticField(5)
    for n in range(1, 200):
        for ideal in ideals_of_norm(f5, n):
            g = totally_positive_generator(ideal)  # class number 1: all principal
            assert g is not None
            assert g.is_totally_positive()
            assert f5.ideal(g) == ideal


def test_ideals_of_norm():
    f5 = RealQuadraticField(5)
    assert ideals_of_norm(f5, 1) == [f5.maximal_order()]
    eleven = ideals_of_norm(f5, 11)
    assert len(eleven) == 2 and eleven[0] != eleven[1]
    assert all(i.norm() == 11 for i in eleven)
    assert ideals_of_norm(f5, 3) == []
    assert len(ideals_of_norm(f5, 9)) == 1  # (3)
    assert len(ideals_of_norm(f5, 121)) == 3  # p^2, p pbar, pbar^2
    with pytest.raises(QuadFieldError):
        ideals_of_norm(f5, 0)


def test_ideal_labels_round_trip():
    f5 = RealQuadraticField(5)
    for n in (1, 4, 5, 9, 11, 19, 121, 44):
        for ideal in ideals_of_norm(f5, n):
            assert ideal_from_label(f5, ideal_label(ideal)) == ideal
    with pytest.raises(QuadFieldError):
        ideal_from_label(f5, "3.0")
    with pytest.raises(QuadFieldError):
        ideal_from_label(f5, "11.2")


def test_different():
    for d, norm in ((5, 5), (3, 12), (2, 8), (13, 13)):
        field = RealQuadraticField(d)
        assert field.different().norm() == field.disc == norm


def test_ideal_factorisation_round_trip():
    f5 = RealQuadraticField(5)
    rng = random.Random(7)
    pool = [i for n in range(2, 40) for i in ideals_of_norm(f5, n)]
    for _ in range(50):
        ideal = rng.choice(pool) * rng.choice(pool)
        out = f5.maximal_order()
        for ell, i, e in ideal.factor():
            out = out * ideal_power(f5.primes_above(ell)[i], e)
        assert out == ideal


@pytest.mark.parametrize("d", [2, 3, 5, 10, 13, 15, 17])
def test_factor_matches_the_valuation_oracle(d):
    # d = 10 and 15 have class number 2; primes, exponents and order must agree
    f = RealQuadraticField(d)
    for n in range(1, 500):
        for ideal in ideals_of_norm(f, n):
            got = [(f.primes_above(ell)[i], e) for ell, i, e in ideal.factor()]
            assert got == ideal_factor_by_valuation(ideal), (d, ideal)


def test_prime_powers_is_one_memo():
    # Q(sqrt 10): 2 ramifies, 3 splits, 7 is inert
    f = RealQuadraticField(10)
    for ell in (2, 3, 7):
        for e in range(5):
            got = prime_powers(f, ell, e)
            assert got is prime_powers(RealQuadraticField(10), ell, e)
            assert [q for q, _ in got] == [ideal_power(p, e) for p in f.primes_above(ell)]
            assert [key for _, key in got] == [q.hnf() for q, _ in got]


def test_element_arithmetic_and_signs():
    f5 = RealQuadraticField(5)
    w = f5.element(0, 1)  # omega
    assert w * w == w + 1  # omega^2 = omega + 1 for d = 5
    assert w.norm() == -1 and 2 * w.x / w.den == 1
    x = f5.element(Fraction(3, 2), Fraction(-1, 2))
    assert x * x.inverse() == f5.element(1)
    assert (x.conjugate().conjugate()) == x
    sqrt5 = f5.element(-1, 2)  # 2 omega - 1
    assert sqrt5.sign_theta1() == 1 and sqrt5.sign_theta2() == -1
    assert sqrt5 * sqrt5 == f5.element(5)


def test_rational_elements_hash_as_fractions():
    f5 = RealQuadraticField(5)
    assert f5.element(3) == 3 and {3: "a"}.get(f5.element(3)) == "a"
    assert hash(f5.element(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_one_field_object_per_d():
    # the per-field memos hit by identity: one object per d, also after the
    # functools caches are cleared, and an invalid d still raises
    f = RealQuadraticField(13)
    assert RealQuadraticField(13) is f is RealQuadraticField("13")
    assert f != RealQuadraticField(17) and {f: "memo"}[RealQuadraticField(13)] == "memo"
    assert splitting_type(f, 11) is splitting_type(RealQuadraticField(13), 11)
    splitting_type.cache_clear()
    prime_powers.cache_clear()
    assert RealQuadraticField(13) is f and f.fundamental_unit() is f.fundamental_unit()
    for bad in (12, 1):
        with pytest.raises(QuadFieldError):
            RealQuadraticField(bad)


def test_concurrent_first_calls_agree():
    # eight threads ask for each of some fresh d at once, each d large enough
    # that validating it takes a switch interval or more: all get one object
    ds = [d for d in range(10 ** 12, 10 ** 12 + 40) if is_squarefree(d)]
    barrier, got = threading.Barrier(8), [[] for _ in range(8)]

    def ask(out):
        for d in ds:
            barrier.wait(timeout=10)
            out.append(RealQuadraticField(d))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(ds) for out in got)
    assert all(a is b for out in got[1:] for a, b in zip(got[0], out))


def test_hnf_invariants():
    f5 = RealQuadraticField(5)
    p, q = f5.primes_above(11)
    prod = p * q
    assert prod == f5.ideal(f5.element(11))
    n, m, g = prod.hnf()
    assert n % g == 0 and m % g == 0 and 0 <= m < n
    with pytest.raises(QuadFieldError):
        IdealRep(f5, 4, 1, 2)  # g does not divide m


def test_non_principal_primes_of_q_sqrt_10():
    # x^2 - 10 y^2 = +-2, +-3 has no solution mod 5
    f = RealQuadraticField(10)
    for ell in (2, 3):
        for p in f.primes_above(ell):
            assert shortest_generator_oracle(f, p) is None
            with pytest.raises(NotPrincipalError):
                find_generator(p)
            assert totally_positive_generator(p) is None


def test_find_generator_is_shortest_and_theta1_positive():
    f = RealQuadraticField(5)
    for ideal in ideals_of_norm(f, 11) + ideals_of_norm(f, 19):
        gen = find_generator(ideal)
        assert gen == shortest_generator_oracle(f, ideal) and gen.sign_theta1() > 0


def test_find_generator_rejects_only_on_failure():
    f5 = RealQuadraticField(5)
    for n in (4, 5, 9, 11):
        for ideal in ideals_of_norm(f5, n):
            gen = find_generator(ideal)
            assert f5.ideal(gen) == ideal
