"""Independent oracles used to derive expected values.

Everything here is deliberately written against different algorithms than the
package: pentagonal-number eta expansion, brute-force Pell searches,
Legendre-symbol residue checks, naive lattice enumeration, plain q-series,
the Leibniz expansion of a determinant.
"""

import cmath
import math
from fractions import Fraction
from itertools import permutations


def eta_qexp(n_terms):
    """q-expansion of prod (1 - q^n) via the pentagonal number theorem."""
    coeffs = [0] * n_terms
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= n_terms and g2 >= n_terms:
            break
        sign = -1 if k % 2 else 1
        if g1 < n_terms:
            coeffs[g1] = sign
        if g2 < n_terms:
            coeffs[g2] = sign
        k += 1
    return coeffs


def poly_mul_trunc(a, b, n_terms):
    out = [0] * n_terms
    for i, x in enumerate(a):
        if x == 0 or i >= n_terms:
            continue
        for j, y in enumerate(b):
            if i + j >= n_terms:
                break
            if y:
                out[i + j] += x * y
    return out


def tau_oracle(n_terms):
    """Ramanujan tau(n) for n < n_terms, via eta(q)^24 from the pentagonal series."""
    eta = eta_qexp(n_terms)
    p2 = poly_mul_trunc(eta, eta, n_terms)
    p4 = poly_mul_trunc(p2, p2, n_terms)
    p8 = poly_mul_trunc(p4, p4, n_terms)
    p16 = poly_mul_trunc(p8, p8, n_terms)
    p24 = poly_mul_trunc(p16, p8, n_terms)
    return {n: p24[n - 1] for n in range(1, n_terms)}


def pell_fundamental_unit(d, bound=10 ** 4):
    """Smallest unit > 1 of O_{Q(sqrt d)} by brute force over sqrt(d)-coefficients."""
    best = None
    for b in range(1, bound):
        for target in (4, -4) if d % 4 == 1 else (1, -1):
            val = d * b * b + target
            if val <= 0:
                continue
            a = math.isqrt(val)
            if a * a != val:
                continue
            if d % 4 == 1:
                if (a - b) % 2:
                    continue
                theta = (a + b * math.sqrt(d)) / 2
                norm = target // 4
            else:
                theta = a + b * math.sqrt(d)
                norm = target
            if best is None or theta < best[0]:
                best = (theta, a, b, norm)
        if best is not None:
            return best
    raise AssertionError(f"no unit found below bound for d={d}")


def legendre_symbol(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x) % p == a for x in range(1, p)) else -1


def classical_eisenstein_q_series(k, alpha, tau, n_terms=80):
    """Weight-k holomorphic Eisenstein series with the alpha-shift, at s = 0:

        (-2 pi i)^{-k} (k-1)! [zeta(k, a) + (-1)^k zeta(k, 1-a)]
        + sum_{n>=1} q^n sum_{d | n} d^{k-1} (e^{2 pi i d a} + (-1)^k e^{-2 pi i d a})
    """
    import mpmath
    a = float(alpha)
    const = (-2j * mpmath.pi) ** (-k) * mpmath.factorial(k - 1) \
        * (mpmath.zeta(k, a) + (-1) ** k * mpmath.zeta(k, 1 - a))
    q = cmath.exp(2j * math.pi * complex(tau))
    acc = complex(const)
    for n in range(1, n_terms):
        coeff = 0j
        for d in range(1, n + 1):
            if n % d == 0:
                coeff += d ** (k - 1) * (cmath.exp(2j * math.pi * d * a)
                                         + (-1) ** k * cmath.exp(-2j * math.pi * d * a))
        acc += coeff * q ** n
    return acc


def shell_ordered_lattice_sum(k, alpha, tau, s, cutoff):
    """The same truncated lattice sum, accumulated by max(|m|,|n|) shells."""
    tot = 0j
    for shell in range(cutoff + 1):
        ring = 0j
        for m in range(-shell, shell + 1):
            for n in range(-shell, shell + 1):
                if max(abs(m), abs(n)) != shell:
                    continue
                w = m * complex(tau) + n + float(alpha)
                val = w ** (-k) if k else 1.0 + 0j
                val *= abs(w) ** (-2 * s)
                ring += val
        tot += ring
    y = complex(tau).imag
    pref = (-2j * math.pi) ** (-k) * math.pi ** (-s)
    gamma = math.gamma(s + k)
    return pref * gamma * (y + 0j) ** s * tot


def kron_product_asai_roots(lam1, eps1, lam2, eps2, ell, w):
    """Asai characteristic polynomial for split ell from Satake-parameter
    products, via the exact elementary symmetric functions of
    {a1 a2, a1 b2, b1 a2, b1 b2} (no square roots materialised)."""
    p1 = Fraction(lam1)
    q1 = Fraction(ell ** (w - 1)) * Fraction(eps1)
    p2 = Fraction(lam2)
    q2 = Fraction(ell ** (w - 1)) * Fraction(eps2)
    e1 = p1 * p2
    e2 = 2 * q1 * q2 + q2 * (p1 * p1 - 2 * q1) + q1 * (p2 * p2 - 2 * q2)
    e4 = (q1 * q2) ** 2
    e3 = q1 * q2 * p1 * p2
    return [Fraction(1), -e1, e2, -e3, e4]


def naive_totally_positive_search(field, ideal, box=60):
    """Exhaustive search for a totally positive generator in a coefficient box."""
    n, m, g = ideal.hnf()
    v1 = field.element(n)
    v2 = field.element(m, g)
    target = ideal.norm()
    for sgn in (1, -1):
        for s in range(-box, box + 1):
            for t in range(-box, box + 1):
                x = (s * v1 + t * v2) * sgn
                if not x:
                    continue
                if x.norm() == target and x.is_totally_positive() and field.ideal(x) == ideal:
                    return x
    return None


def hand_norm_relation_inert_000(ell):
    """Hand expansion of the inert norm-relation bracket at j=k=k'=0:

        sigma: -1;  1: T;  sigma^-1: -(l-1) S;  sigma^-2: -S T;  sigma^-3: l S^2
    written as {sigma exponent: {(T deg, S deg): coefficient}}."""
    return {
        1: {(0, 0): Fraction(-1)},
        0: {(1, 0): Fraction(1)},
        -1: {(0, 1): Fraction(-(ell - 1))},
        -2: {(1, 1): Fraction(-1)},
        -3: {(0, 2): Fraction(ell)},
    }


def leibniz_charpoly_reversed(a):
    """Coefficients [c0..cn] of det(1 - X*A) by the Leibniz expansion: a sum
    over all n! permutations of products of the linear entries of 1 - X*A."""
    n = len(a)
    one = a[0][0] * 0 + 1
    coeffs = [one * 0 for _ in range(n + 1)]
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        poly = [one]  # product polynomial, low degree first
        for i in range(n):
            const = one if perm[i] == i else one * 0
            lin = -a[i][perm[i]]
            poly = _lin_mul(poly, const, lin)
        for d, c in enumerate(poly):
            coeffs[d] = coeffs[d] + sign * c
    return coeffs


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _lin_mul(poly, const, lin):
    """poly * (const + lin*X), coefficients low degree first."""
    out = [c * const for c in poly] + [poly[0] * 0]
    for d, c in enumerate(poly):
        out[d + 1] = out[d + 1] + c * lin
    return out
