"""Dirichlet characters against a discrete-log product, and the quadratic
character chi_D of the L-series oracle against the splitting of primes."""

import cmath
import math

import mpmath
import pytest

from asailab.arith import is_squarefree, primes_up_to
from asailab.characters import DirichletCharacter, RootOfUnity
from asailab.precision import GUARD_BITS
from asailab.quadfield import RealQuadraticField, splitting_type
from oracles import character_by_discrete_log, kronecker_table

MODULI = range(1, 61)


def _exponents(chi):
    """a -> k with chi(a) = zeta_order^k, for each unit a mod m, read through chi(a)."""
    out = {}
    for a in range(chi.modulus):
        v = chi(a)
        if v is not None:
            assert chi.order % v.n == 0
            out[a] = v.e * (chi.order // v.n)
    return out


def _brute_conductor(chi, ks):
    """The least f | m such that chi(a) depends only on a mod f."""
    for f in range(1, chi.modulus + 1):
        if chi.modulus % f == 0:
            by_residue = {}
            if all(by_residue.setdefault(a % f, k) == k for a, k in ks.items()):
                return f
    raise AssertionError("m itself is always a period")


@pytest.mark.parametrize("m", MODULI)
def test_characters_against_the_discrete_log_product(m):
    chars = DirichletCharacter.all_characters(m)
    units = [a for a in range(m) if math.gcd(a, m) == 1]
    assert len(chars) == len(units) == len(set(chars))
    column_sums = [0j] * m
    for chi in chars:
        assert chi(1) == 1
        for a in range(-m, 2 * m):
            v = chi(a)
            assert (v is None) == (math.gcd(a, m) > 1)
            if v is not None:
                assert (v.e, v.n) == character_by_discrete_log(m, chi.exponents, a)
        ks = _exponents(chi)
        # values multiply as exponents: chi(ab) = chi(a) chi(b)
        for a in units:
            ka = ks[a]
            assert all(ks[a * b % m] == (ka + ks[b]) % chi.order for b in units)
        # order is the order of the values
        assert chi.order == math.lcm(*(chi(a).n for a in units))
        # first orthogonality: sum over a
        roots = {a: cmath.exp(2j * cmath.pi * k / chi.order) for a, k in ks.items()}
        want = len(units) if chi.order == 1 else 0
        assert abs(sum(roots.values()) - want) < 1e-9
        for a, z in roots.items():
            column_sums[a] += z
        assert chi.conductor() == _brute_conductor(chi, ks)
    # second orthogonality: sum over characters
    for a in units:
        assert abs(column_sums[a] - (len(units) if a == 1 % m else 0)) < 1e-9


def test_oracle_chi_d_matches_the_splitting_of_primes():
    sign = {"split": 1, "inert": -1, "ramified": 0}
    for d in range(2, 30):
        if not is_squarefree(d):
            continue
        field = RealQuadraticField(d)
        chi = kronecker_table(field.disc, 499)
        for ell in primes_up_to(499):
            assert chi[ell] == sign[splitting_type(field, ell).kind.value], (d, ell)


def test_root_values_follow_the_precision(precision):
    # one process, 64 then 128 then 64 bits: each value is exp(2 pi i e/n)
    # computed afresh at that precision, not one kept from another
    values = []
    for bits in (64, 128, 64):
        precision(bits)
        for e, n in ((1, 3), (2, 5), (5, 12)):
            with mpmath.workprec(bits + GUARD_BITS):
                want = mpmath.exp(2j * mpmath.pi * e / n)
            assert RootOfUnity(e, n).to_mpc() == want, (bits, e, n)
        values.append(RootOfUnity(1, 3).to_mpc())
    assert values[0] == values[2] != values[1]
