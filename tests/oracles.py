"""Independent oracles used to derive expected values.

Everything here is deliberately written against different algorithms than the
package: pentagonal-number eta expansion, brute-force Pell searches,
Legendre-symbol residue checks, naive lattice enumeration, plain q-series,
the Leibniz expansion of a determinant, cyclotomic polynomials by long
division of x^m - 1, Eisenstein Fourier modes pair by pair, the float
lattice sum one row at a time and by numpy's complex powers, Dirichlet sums
one power n^{-s} at a time, factorisation, primality and squarefreeness by
trial division, ideal factorisation by repeated containment, eigenvalues at
composite ideals from ideal powers, ramified Euler factors and the Euler
product by truncated power series, the Euler product by Horner's rule in
mpmath, quadratic characters multiplied up from Legendre symbols, Dirichlet
characters as a product over discrete logarithms, and a JSON parser that
refuses NaN.
"""

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from asailab.characters import unit_group_structure


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


def sym2_times_twisted_zeta(d, n_max):
    """Dirichlet coefficients, as a list indexed 0..n_max, of
    zeta(2s - 22) * sum tau(n^2) n^-s * L(eps_F, s - 11) = L(Sym^2 Delta, s) L(eps_F, s - 11),
    eps_F = (D/.) for the discriminant D of F = Q(sqrt d).  This is the Asai
    L-series of the base change of Delta to F, since As(V) = Sym^2 V + (wedge^2 V x eps_F)
    for V restricted to F (Asai 1977; Zagier, LNM 627).  tau(n^2) is multiplicative,
    with tau(p^2e) from the Hecke recursion on tau(p)."""
    disc = d if d % 4 == 1 else 4 * d
    chi = kronecker_table(disc, n_max)
    tau = tau_oracle(n_max + 1)
    tau_sq = [0] * (n_max + 1)  # tau(n^2)
    for n in range(1, n_max + 1):
        val, m, p = 1, n, 2
        while m > 1:
            if p * p > m:
                p = m
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k:
                prev, cur = 1, tau[p]  # tau(p^0), tau(p^1)
                for _ in range(2 * k - 1):
                    prev, cur = cur, tau[p] * cur - p ** 11 * prev
                val *= cur
            p += 1
        tau_sq[n] = val
    out = [0] * (n_max + 1)
    for m in range(1, math.isqrt(n_max) + 1):
        for a in range(1, n_max // (m * m) + 1):
            for b in range(1, n_max // (m * m * a) + 1):
                out[m * m * a * b] += m ** 22 * tau_sq[a] * chi[b] * b ** 11
    return out


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


def kronecker_table(disc, n_max):
    """chi_D(n) = (D/n) for n = 0..n_max, D a fundamental discriminant: completely
    multiplicative from its primes, (D/p) the Legendre symbol at odd p and, at
    p = 2, 0 for even D and +1 or -1 as D = 1 or 5 mod 8."""
    chi = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        p = next(q for q in range(2, n + 1) if n % q == 0)
        if p < n:
            chi[n] = chi[p] * chi[n // p]
        elif p == 2:
            chi[n] = 0 if disc % 2 == 0 else 1 if disc % 8 == 1 else -1
        else:
            chi[n] = legendre_symbol(disc, p)
    return chi


def character_by_discrete_log(modulus, exponents, a):
    """chi(a) as (e, n) with chi(a) = exp(2 pi i e/n) in lowest terms (None when
    gcd(a, m) > 1): the discrete logs of a on the generators of
    `unit_group_structure` by enumeration of the group, then a product of roots
    of unity zeta_order^(exponent * log), one per generator."""
    a %= modulus
    if math.gcd(a, modulus) != 1:
        return None
    gens = unit_group_structure(modulus)
    logs = _discrete_log_table(modulus)[a]
    num, den = 0, 1  # the value exp(2 pi i num/den)
    for e_char, e_elt, (_, order) in zip(exponents, logs, gens):
        num, den = num * order + e_char * e_elt * den, den * order
    g = math.gcd(num % den, den)
    return num % den // g, den // g


@lru_cache(maxsize=None)
def _discrete_log_table(m):
    """Map a -> exponent tuple over the cyclic generators of (Z/m)^x."""
    gens = unit_group_structure(m)
    table = {1 % m: (0,) * len(gens)}
    for i, (g, order) in enumerate(gens):
        new = dict(table)
        for a, exps in table.items():
            x = a
            for e in range(1, order):
                x = (x * g) % m
                new[x] = exps[:i] + (e,) + exps[i + 1:]
        table = new
    return table


def scan_sqrt_lift(e, p, prec):
    """The square root of e mod p^prec lifting the least root in 1..p-1 of
    x^2 = e mod p (found by scanning), one p-adic digit at a time; None for a
    non-residue."""
    r = next((x for x in range(1, p) if (x * x - e) % p == 0), None)
    if r is None:
        return None
    for k in range(1, prec):
        digit = (e - r * r) // p ** k * pow(2 * r, -1, p) % p
        r += digit * p ** k
    return r % p ** prec


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


def hyperu_reference(a, b, z1, N, prec):
    """U(a, b, n z1) for n = 1..N, each by its own mpmath.hyperu call at
    prec + 64 bits (asymptotic series, or the two-term 1F1 connection
    formula with a perturbed b when that diverges)."""
    import mpmath
    with mpmath.workprec(prec + 64):
        return [mpmath.hyperu(a, b, n * z1) for n in range(1, N + 1)]


def check_hyperu_ladder(s, k, y, N, prec):
    """Assert both U-columns of the package's Fourier modes at z1 = 4 pi y
    match hyperu_reference to 2^-(prec-8) relative.  U(a, b, z) has real
    zeros when a < 0, so next to one the error is measured against the
    larger neighbour."""
    import mpmath
    from asailab.eisenstein import _hyperu_values
    with mpmath.workprec(prec):
        s, z1 = mpmath.mpmathify(s), 4 * mpmath.pi * y
        for a in {s, s + k}:
            got = _hyperu_values(a, 2 * s + k, z1, N)
            want = hyperu_reference(a, 2 * s + k, z1, N, prec)
            assert len(got) == N
            for n, (g, w) in enumerate(zip(got, want)):
                scale = max(abs(v) for v in want[max(n - 1, 0):n + 2])
                assert abs(g - w) <= mpmath.ldexp(scale, 8 - prec), (a, n + 1, prec)


def oscillating_by_divisor_pairs(k, a_m, x, y, s, prec):
    """The r != 0 Fourier modes of eisenstein_continued, pair by pair: two
    exponentials and one power for every (n, r | n), with alpha as an mpf
    a_m.  Call it where eisenstein._oscillating runs (inside mp_context(prec)
    and its extra precision)."""
    import mpmath
    from asailab.arith import divisors
    from asailab.eisenstein import _hyperu_values
    from asailab.precision import working_precision
    pref = y ** s * (2 * mpmath.pi) ** (1 - k) * mpmath.pi ** (-s)
    poch = mpmath.rf(s, k)
    cutoff = (working_precision(prec) + 25) * mpmath.log(2)
    two_pi = 2 * mpmath.pi
    n_max = int(cutoff / (two_pi * y))
    z1 = 4 * mpmath.pi * y
    us1 = [mpmath.mpf(1)] * n_max if s == 0 else _hyperu_values(s, 2 * s + k, z1, n_max)
    us2 = [None] * n_max if poch == 0 else _hyperu_values(s + k, 2 * s + k, z1, n_max)
    acc = mpmath.mpc(0)
    sign = (-1) ** k
    for n, u1, u2 in zip(range(1, n_max + 1), us1, us2):
        expo = mpmath.exp(-two_pi * (n * y))
        row = mpmath.mpc(0)
        for r in divisors(n):
            base = (two_pi * r) ** (2 * s + k - 1)
            e1 = mpmath.expjpi(2 * (n * x + r * a_m))
            e2 = mpmath.expjpi(2 * (n * x - r * a_m))
            row += base * (u1 * (e1 + sign * e2))
            if u2 is not None:
                row += base * poch * u2 * (mpmath.conj(e1) + sign * mpmath.conj(e2))
        acc += expo * row
    return pref * acc


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


def lattice_by_rows(k, alpha, tau, s, cutoff):
    """eisenstein._lattice_float one row m at a time: the same per-term
    arithmetic (the real power r2^-Re(s), the phase at complex s, and
    (conj w / r2)^k by repeated squaring) on one numpy row per m, its sum added
    to the total in order of m (alpha, tau, s as floats)."""
    import numpy as np
    import mpmath
    ns = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    tot = 0j
    for m in range(-cutoff, cutoff + 1):
        u = (float(m) * tau.real + alpha) + ns
        v = float(m) * tau.imag
        r2 = u * u + v * v
        val = 1.0 if s == 0 else r2 ** -s.real
        if s.imag:
            val = val * np.exp(-1j * s.imag * np.log(r2))
        if k:
            z = (u / r2 - 1j * (v / r2)) if k > 0 else u + 1j * v
            base, e, zk = z, abs(k), None
            while e:
                if e & 1:
                    zk = base if zk is None else zk * base
                e >>= 1
                if e:
                    base = base * base
            val = zk * val
        tot += complex(val.sum())
    pref = (-2j * math.pi) ** (-k) * math.pi ** (-s) * complex(mpmath.gamma(s + k))
    return pref * (tau.imag + 0j) ** s * tot


def lattice_by_complex_power(k, alpha, tau, s, cutoff):
    """The truncated lattice sum by numpy's complex powers: w^-k, and |w|^2
    raised to the complex exponent -s even at real s, on one numpy row per m,
    its sum added to the total in order of m."""
    import numpy as np
    import mpmath
    ns = np.arange(-cutoff, cutoff + 1, dtype=np.complex128)
    tot = 0j
    for m in range(-cutoff, cutoff + 1):
        w = (m * tau + alpha) + ns
        val = np.ones_like(w)
        if k:
            val = w ** (-k)
        if s != 0:
            val = val * (w.real * w.real + w.imag * w.imag) ** (-s)
        tot += complex(val.sum())
    pref = (-2j * math.pi) ** (-k) * math.pi ** (-s) * complex(mpmath.gamma(s + k))
    return pref * (tau.imag + 0j) ** s * tot


def imprimitive_L_by_terms(series, s, n_cutoff, prec=None):
    """lseries.imprimitive_L one term at a time: an mpmath power for every
    n <= n_cutoff, each term rounded and added in turn, in both the Dirichlet
    sum and the chi-zeta factor."""
    import mpmath
    from asailab.coeffs import to_mpf
    from asailab.precision import mp_context
    with mp_context(prec):
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        table = series.alpha_table(n_cutoff)
        dirichlet = mpmath.mpc(0)
        for n in range(1, n_cutoff + 1):
            if table[n]:
                dirichlet += to_mpf(table[n]) * mpmath.power(n, -s_m)
        u = series.zeta_argument(s_m)
        return +(dirichlet_l_by_terms(series.chi, u, n_cutoff, prec) * dirichlet)


def dirichlet_l_by_terms(chi, u, n_cutoff, prec=None):
    """The partial sum of L_(N)(chi, u) one term at a time, chi converted at
    every n.  Call it inside mp_context(prec)."""
    import mpmath
    acc = mpmath.mpc(0)
    for n in range(1, n_cutoff + 1):
        v = chi(n)
        if v is None:
            continue
        if v.is_real():
            acc += int(v.as_rational()) * mpmath.power(n, -u)
        else:
            acc += v.to_mpc(prec) * mpmath.power(n, -u)
    return acc


def factorise_by_trial_division(n):
    """Prime factorisation of |n| as [(p, e), ...], p ascending, by trial
    division to the square root of the cofactor left."""
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not allow."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


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


def shortest_generator_oracle(field, ideal):
    """The generator of the ideal least under (q, -sign theta1, a, b), with
    q = theta1^2 + theta2^2, or None when the ideal is not principal.

    Enumerates every ideal element with q <= (eps + 1/eps) N(I), eps from
    pell_fundamental_unit: some generator gamma eps^k has |theta1/theta2| in
    [1/eps, eps] and so q <= (eps + 1/eps) N(I).  Works on 2x = u + w sqrt(d)
    with integer u, w, where q = (u^2 + d w^2) / 2, Norm = (u^2 - d w^2) / 4
    and (eps + 1/eps)^2 = Tr(eps)^2 - 2 Norm(eps) + 2, so every comparison is
    exact.
    """
    d = field.d
    half = d % 4 == 1
    _, ea, _, enorm = pell_fundamental_unit(d)
    trace = ea if half else 2 * ea
    target = ideal.norm()
    # (u^2 + d w^2)^2 = 4 q^2 <= 4 (eps + 1/eps)^2 N^2 =: lim
    lim = 4 * (trace * trace - 2 * enorm + 2) * target * target
    size = math.isqrt(math.isqrt(lim)) + 1  # bounds u^2 + d w^2 <= size^2
    n, m, g = ideal.hnf()
    best = None
    for j in range(-(size // g) - 1, size // g + 2):
        b = g * j
        w = b if half else 2 * b
        if d * w * w > size * size:
            continue
        # u = 2a + b (half) or 2a, |u| <= size, a = j m mod n
        shift = b if half else 0
        a = (-size - shift) // 2
        a += (j * m - a) % n
        while 2 * a + shift <= size:
            u = 2 * a + shift
            s2 = u * u + d * w * w
            if s2 * s2 <= lim and abs(u * u - d * w * w) == 4 * target:
                # sign of theta1 = (u + w sqrt(d)) / 2: that of the larger term
                sign = 1 if (u > 0 and u * u > d * w * w) or (w > 0 and d * w * w > u * u) else -1
                key = (s2, -sign, a, b)
                if best is None or key < best:
                    best = key
            a += n
    return None if best is None else field.element(best[2], best[3])


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_division(m):
    """Phi_m (low degree first) as x^m - 1 divided by Phi_d for every d | m, d < m.

    Integer long division: every Phi_d is monic, so a Fraction quotient (about
    50x slower) would hold the same integers; each step checks its remainder.
    """
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic_polynomial_by_division(d)
            quo = [0] * (len(poly) - len(den) + 1)
            for i in range(len(quo) - 1, -1, -1):
                quo[i] = c = poly[i + len(den) - 1]
                for j, dc in enumerate(den):
                    poly[i + j] -= c * dc
            if any(poly):
                raise ArithmeticError(f"Phi_{d} does not divide x^{m} - 1 exactly")
            poly = quo
    return tuple(poly)


def is_squarefree_by_factorisation(n):
    """n != 0 with every exponent of its trial-division factorisation 1."""
    return n != 0 and all(e == 1 for _, e in factorise_by_trial_division(n))


def ideal_factor_by_valuation(ideal):
    """IdealRep.factor by repeated containment: for each ell | Nm(ideal),
    ascending, and each P above ell in primes_above order, the largest v with
    P^v | ideal."""
    out = []
    for ell, _ in factorise_by_trial_division(ideal.norm()):
        for p in ideal.field.primes_above(ell):
            v, power = 0, p
            while power.divides(ideal):
                v, power = v + 1, power * p
            if v:
                out.append((p, v))
    return out


def lambda_of_by_ideal_powers(form, ideal):
    """lambda at an integral ideal: the stored value, else the product of the
    values stored under (p ** e).hnf() over the factorisation of the ideal by
    repeated containment; None when some part is not stored."""
    val = form.stored(ideal)
    if val is not None:
        return val
    out = form.coefficient_field.one()
    for p, e in ideal_factor_by_valuation(ideal):
        part = form.eigenvalues.get((p ** e).hnf())
        if part is None:
            return None
        out = out * part
    return out


def power_series_quotient(num, den, n_terms):
    """The first n_terms coefficients of num/den by long division (den[0] = 1)."""
    rem = list(num) + [num[0] * 0] * max(0, n_terms - len(num))
    out = []
    for i in range(n_terms):
        out.append(rem[i])
        for j in range(1, min(len(den), n_terms - i)):
            rem[i + j] = rem[i + j] - rem[i] * den[j]
    return out


def ramified_local_factor_series(form, ell, order):
    """Coefficients c_0, ..., c_order in X = l^{-s} of the local factor of
    L^imp at a ramified good prime l, zeta factor included, as two long
    divisions: with Xt = l^{-(t+t')} X, a + b = lambda(P), ab = l^{w-1} eps(P),
        sum_j alpha(l^j) X^j = (1 + ab Xt) / ((1 - a^2 Xt)(1 - b^2 Xt)),
    then division by 1 - eps(P)^2 l^{k+k'+2} X^2."""
    p, = form.field.primes_above(ell)
    w = form.weight
    lam, eps = form.lambda_of(p), form.eps_of(p)
    tw = Fraction(ell) ** -(w.t1 + w.t2)
    ab = Fraction(ell ** (w.w - 1)) * eps
    one = form.coefficient_field.one()
    alphas = power_series_quotient(
        [one, tw * ab], [one, -(tw * (lam * lam - 2 * ab)), (tw * tw) * (ab * ab)], order + 1)
    zeta = Fraction(ell ** (w.k + w.kprime + 2)) * (eps * eps)
    return power_series_quotient(alphas, [one, one * 0, -zeta], order + 1)


def euler_product_L_by_series(series, s, ell_cutoff, prec=None):
    """lseries.euler_product_L at a level-1 form by power series: 1 / P_l(F, x)
    at unramified l and the 40-term ramified_local_factor_series at ramified
    l, each polynomial evaluated by Horner's rule at x = l^{-s}."""
    import mpmath
    from asailab.arith import primes_up_to
    from asailab.asairep import asai_charpoly
    from asailab.precision import mp_context

    form = series.form
    with mp_context(prec):
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        total = mpmath.mpc(1)
        for ell in primes_up_to(ell_cutoff):
            x = mpmath.power(ell, -s_m)
            if form.field.disc % ell:
                total *= 1 / _horner(asai_charpoly(form, ell).coeffs, x)
            else:
                total *= _horner(ramified_local_factor_series(form, ell, 40), x)
        return +total


def euler_product_L_by_horner(series, s, ell_cutoff, prec=None):
    """lseries.euler_product_L in mpmath, one prime at a time: each local
    factor num(x) / den(x) at x = l^{-s} by Horner's rule on the converted
    coefficients, with GUARD_BITS more at good l, and the product of the
    rounded factors."""
    import mpmath
    from asailab.arith import primes_up_to
    from asailab.precision import GUARD_BITS, mp_context

    with mp_context(prec):
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        total = mpmath.mpc(1)
        for ell in primes_up_to(ell_cutoff):
            x = mpmath.power(ell, -s_m)
            num, den = series.local_factor(ell)
            with mpmath.extraprec(GUARD_BITS):
                factor = _horner(num, x) / _horner(den, x)
            total *= +factor
        return +total


def _horner(coeffs, x):
    """An exact polynomial (low degree first) at an mpmath x by Horner's rule,
    each coefficient converted at the working precision."""
    import mpmath
    from asailab.coeffs import to_mpf
    acc = mpmath.mpc(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + to_mpf(c)
    return acc
