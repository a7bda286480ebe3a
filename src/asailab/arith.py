"""Elementary arithmetic of rational integers shared by the package:
factorisation, divisors, deterministic primality, square roots mod p and
sieves."""

import math


_EARLY_EXIT_FROM = 1 << 16  # below it, trial division is as cheap as a primality test


def factorise(n):
    """Prime factorisation of |n| as [(p, e), ...], p ascending ([] for 0, 1).
    Trial division ends early at a cofactor >= _EARLY_EXIT_FROM (tested at the
    start and after each prime removed) that is a prime or a prime square."""
    n = abs(int(n))
    if n >= _EARLY_EXIT_FROM and (last := _prime_or_prime_square(n)):
        return [last]
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            if n >= _EARLY_EXIT_FROM and (last := _prime_or_prime_square(n)):
                return out + [last]
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _prime_or_prime_square(n):
    """(p, e) when n = p^e, p a prime below PRIMALITY_LIMIT, e in (1, 2); else None."""
    r = math.isqrt(n)
    for p, e in ((n, 1), (r, 2)):
        if p ** e == n and p < PRIMALITY_LIMIT and is_prime(p):
            return p, e
    return None


def sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# Miller-Rabin to the bases of the first k primes is exact for n below
# _MR_BOUNDS[k - 1] (Jaeschke, Math. Comp. 61 (1993); the last two bounds are
# Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981)
PRIMALITY_LIMIT = _MR_BOUNDS[-1]


def is_prime(n):
    """Deterministic primality for n < PRIMALITY_LIMIT (about 3.3e24):
    trial division by the first 13 primes, then Miller-Rabin to the fewest of
    them proven exact for the size of n.  Raises ValueError above the limit."""
    n = int(n)
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality of {n} is decided only below {PRIMALITY_LIMIT}")
    for p in _MR_PRIMES:
        if n % p == 0:
            return n == p
    if n < _MR_PRIMES[-1] ** 2:
        return n > 1
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    k = next(k for k, bound in enumerate(_MR_BOUNDS, 1) if n < bound)
    for a in _MR_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n):
    """n != 0 with no square factor > 1.  Trial division runs only while
    d^3 <= the cofactor left: that cofactor then has at most two prime
    factors, so it is squarefree unless it is the square of a prime."""
    n = abs(int(n))
    if n == 0:
        return False
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 1 if d == 2 else 2
    return n == 1 or math.isqrt(n) ** 2 != n


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


_spf = ()   # the sieve of the largest n asked for so far


def smallest_prime_factors(n):
    """A tuple spf, at least n + 1 long, with spf[m] the smallest prime factor
    of m for 2 <= m <= n.  One process-wide table serves every call, since one
    L-value asks for several n: an n past its end sieves 1..n on a new list,
    published by one assignment, so a reader never sees a half-built table."""
    global _spf
    spf = _spf
    if len(spf) <= n:
        spf = list(range(n + 1))
        p = 2
        while p * p <= n:
            if spf[p] == p:
                for q in range(p * p, n + 1, p):
                    if spf[q] == q:
                        spf[q] = p
            p += 1
        spf = _spf = tuple(spf)
    return spf


def primes_up_to(n):
    """Primes p <= n, ascending."""
    spf = smallest_prime_factors(n)
    return [p for p in range(2, n + 1) if spf[p] == p]
