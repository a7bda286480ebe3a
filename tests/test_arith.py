import random
import time

import pytest

from asailab.arith import PRIMALITY_LIMIT, factorise, is_prime, is_squarefree
from oracles import (factorise_by_trial_division, is_prime_by_trial_division,
                     is_squarefree_by_factorisation)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(-10, 200_000))


@pytest.mark.parametrize("n", [
    # strong pseudoprimes to the first k prime bases, k = 1, ..., 12: each
    # is the bound below which those k bases suffice
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_strong_pseudoprimes_are_rejected(n):
    assert not is_prime(n)


def test_is_prime_matches_sympy_up_to_the_limit():
    # every size class of base sets, at random values and at primes
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for digits in range(4, 26):
        for _ in range(40):
            n = rng.randrange(10 ** (digits - 1), min(10 ** digits, PRIMALITY_LIMIT))
            assert is_prime(n) == sympy.isprime(n), n
            p = sympy.prevprime(n)
            assert is_prime(p), p
    for n in (10 ** 12 + 39, 10 ** 14 + 31, 2 ** 61 - 1, 2 ** 67 - 1, PRIMALITY_LIMIT - 1):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_takes_microseconds_at_fourteen_digits():
    # trial division to sqrt(n) took 1.6 s (2-core x86, Python 3.11.7)
    best = min(_seconds(is_prime, 10 ** 14 + 31) for _ in range(3))
    assert is_prime(10 ** 14 + 31) and best < 0.010


def test_is_prime_refuses_above_its_limit():
    assert PRIMALITY_LIMIT == 3317044064679887385961981
    for n in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 1, 10 ** 30):
        with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
            is_prime(n)


def test_is_squarefree_matches_factorisation():
    assert all(is_squarefree(n) == is_squarefree_by_factorisation(n)
               for n in range(-10, 200_000))


@pytest.mark.parametrize("n, want", [
    # cofactors left past the cube root: a prime square, with and without a
    # small factor, a product of two large primes, a large prime
    (3 * (10 ** 7 + 19) ** 2, False), (1000003 ** 2, False), (2 * 1000003 ** 2, False),
    (1000003 * (10 ** 7 + 19), True), (10 ** 14 + 31, True), (-(10 ** 14 + 31), True),
    (10 ** 15 + 37, True),
])
def test_is_squarefree_past_the_cube_root(n, want):
    assert is_squarefree(n) is want


def test_is_squarefree_stops_at_the_cube_root():
    # trial division to sqrt(n) took 0.9 s at 10^14 + 31 and 2.8 s at
    # 10^15 + 37 (2-core x86, Python 3.11.7); the cube root takes milliseconds
    for n in (10 ** 14 + 31, 10 ** 15 + 37):
        best = min(_seconds(is_squarefree, n) for _ in range(3))
        assert best < 0.1, (n, best)


def test_factorise_matches_trial_division():
    # below 2^16 factorise is trial division; above, it also stops at a large
    # prime or prime-square cofactor
    assert all(factorise(n) == factorise_by_trial_division(n) for n in range(-10, 200_000))
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randrange(2 ** 20, 2 ** 34)
        assert factorise(n) == factorise_by_trial_division(n), n


P9, P12, P14 = 10 ** 9 + 7, 10 ** 12 + 39, 10 ** 14 + 31


@pytest.mark.parametrize("n, want", [
    # a large prime or prime square, alone or after small factors, ends the
    # list; other cofactors fall back to trial division
    (P9 ** 2, [(P9, 2)]), (P14, [(P14, 1)]), (P12 ** 2, [(P12, 2)]),
    (-(P14 ** 2), [(P14, 2)]), (2 ** 5 * 3 * P14, [(2, 5), (3, 1), (P14, 1)]),
    (18 * (10 ** 7 + 19) ** 2, [(2, 1), (3, 2), (10 ** 7 + 19, 2)]),
    (1000003 * (10 ** 7 + 19), [(1000003, 1), (10 ** 7 + 19, 1)]),
    (1000003 ** 3, [(1000003, 3)]), (7 * 1000003 ** 4, [(7, 1), (1000003, 4)]),
])
def test_factorise_large_cofactors(n, want):
    assert factorise(n) == want


def test_factorise_stops_at_a_large_prime_or_prime_square():
    # trial division to the prime took 2.0 s at 10^14 + 31 and did not finish
    # in 60 s at (10^9 + 7)^2 (2-core x86, Python 3.11.7)
    for n in (P9 ** 2, P14, P12 ** 2):
        best = min(_seconds(factorise, n) for _ in range(3))
        assert best < 0.01, (n, best)


def _seconds(f, *args):
    started = time.perf_counter()
    f(*args)
    return time.perf_counter() - started
