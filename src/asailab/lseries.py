"""The imprimitive Asai L-function: Dirichlet series, Euler product, and the
closed-form unfolding/regulator constants.

L^imp(F, s) = L_(N)(chi, 2s - 2 - k - k') * sum_{n>=1} alpha(n) n^{-s},
chi the nebentype restricted to (Z/N)^x, N the positive generator of
(level cap Z): trivial, as AsaiLSeries refuses any other, so no character
object is kept.  The shift 2s - 2 - k - k' is the one forced by the local
Hecke identity sum_j alpha(l^j) X^j = (1 - chi(l) l^{k+k'+2} X^2) / P_l(F, X)
at good unramified l; with it the Euler product over good primes of
P_l(F, l^{-s})^{-1} reproduces the Dirichlet series exactly.

At a ramified good prime the local factor is the rational function forced by
the recursion (AsaiLSeries.local_factor), which both Euler-product routes read.
Both sides run on integer triples (x, y, den) of (x + y sqrt(e)) / den (the
alpha table, the local factors' coefficients and their series division), p^{-s}
is `precision.inverse_power`, and exact coefficients become QuadElts last.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .arith import primes_up_to, smallest_prime_factors
from .asairep import asai_charpoly
from .coeffs import QuadElt, _coords, _plus, _times
from .eigenform import _power_parts
from .precision import GUARD_BITS, exact_fixed, fixed, from_fixed, inverse_power, mp_context
from .quadfield import splitting_type


class LSeriesError(ValueError):
    pass


def dirichlet_alpha_table(form, n_max):
    """alpha(n) for 1 <= n <= n_max (index 0 unused) as canonical triples
    (x, y, den) of (x + y sqrt(e)) / den, den > 0 and gcd 1 as in QuadElt: the
    one route to the Dirichlet coefficients.  The form is asked for lambda((1))
    and, by `_stored_product`, for the parts of (l^e) at each prime power l^e <=
    n_max (l, then e, ascending, so a missing eigenvalue is reported at the first
    prime power that needs it), twisted by l^{-e(t+t')} on integers; the rest is
    assembled multiplicatively."""
    n_max = int(n_max)
    if n_max < 1:
        raise LSeriesError(f"need n_max >= 1, got {n_max}")
    t, local = form.weight.t1 + form.weight.t2, {}
    for ell in primes_up_to(n_max):
        st, pe, e = splitting_type(form.field, ell), ell, 1
        while pe <= n_max:
            twist = pe ** max(-t, 0), 0, pe ** max(t, 0)
            local[ell, e] = _times(_coords(form._stored_product(_power_parts(st, e))), twist, 0)
            pe, e = pe * ell, e + 1
    return _multiplicative_table(n_max, _coords(form.lambda_rational(1)), local,
                                 form.coefficient_field.e or 0)


def _multiplicative_table(n_max, c1, local, e):
    """[None, c(1), ..., c(n_max)] with c(1) = c1 and c(n) the product of the
    triples local[l, k] over l^k || n, assembled along smallest prime factors."""
    spf = smallest_prime_factors(n_max)
    table = [None, c1] + [None] * (n_max - 1)
    for n in range(2, n_max + 1):
        ell, m, k = spf[n], n // spf[n], 1
        while m % ell == 0:
            m, k = m // ell, k + 1
        table[n] = _times(local[ell, k], table[m], e) if m > 1 else local[ell, k]
    return table


class AsaiLSeries:
    """Imprimitive Asai L-series of a form with trivial nebentype: eps(P) = 1,
    and chi(n) is 1 at gcd(n, N) = 1 and 0 elsewhere."""

    def __init__(self, form):
        if form.nebentype:
            raise LSeriesError("nontrivial nebentype restriction not implemented")
        self.form = form
        self.rational_level = form.rational_level()

    def alpha_table(self, n_max):
        """dirichlet_alpha_table of the form, built afresh on each call: kept, a
        table of triples would hold 0.05-0.08 KB per coefficient for the life of
        the series, and a rebuild costs 1.5-2.5 us per coefficient (Delta over
        Q(sqrt 5) and Q(sqrt 13), n = 500-4000, 2-core x86, Python 3.11)."""
        return dirichlet_alpha_table(self.form, n_max)

    @property
    def shift_weight(self):
        w = self.form.weight
        return w.k + w.kprime

    def zeta_argument(self, s):
        return 2 * s - 2 - self.shift_weight

    def local_factor(self, ell):
        """The local factor of L^imp at a good prime l, zeta factor included, as
        polynomials (num, den) in X = l^{-s} over QuadElts; l | N is refused here.

        Unramified l: ([1], P_l(F, X)).  Ramified l, (l) = P^2: alpha(l^j) =
        l^{-j(t+t')} lambda(P^{2j}) gives, with Xt = l^{-(t+t')} X,
            num = 1 + ab Xt,
            den = (1 - a^2 Xt)(1 - b^2 Xt)(1 - l^{k+k'+2} X^2),
        a + b = lambda(P) and ab = l^{w-1}, eps(P) and chi(l) being 1.  Only
        lambda(P) is read, never a stored lambda(P^e) with e >= 2.
        """
        if self.rational_level % ell == 0:
            raise LSeriesError(f"missing bad factor C_l at l = {ell}")
        form = self.form
        one = form.coefficient_field.one()
        st = splitting_type(form.field, ell)
        if not st.is_ramified:
            return [one], asai_charpoly(form, ell).coeffs
        p, = st.primes
        w = form.weight
        lam = form.lambda_of(p)
        # ab Xt = u X, (a^2 + b^2) Xt = v X and l^{k+k'+2} X^2 = z X^2
        xt = Fraction(ell) ** -(w.t1 + w.t2)
        u = one * (xt * ell ** (w.w - 1))
        v = xt * (lam * lam) - 2 * u
        z = ell ** (self.shift_weight + 2)
        return [one, u], [one, -v, u * u - z, z * v, -(z * (u * u))]


def imprimitive_L(series, s, n_cutoff=4000):
    """Truncated L_(N)(chi, 2s-2-k-k') * sum_{n <= n_cutoff} alpha(n) n^{-s}.

    Requires Re(s) > (k+k')/2 + 2 for a meaningful truncation.  Returns
    (value, report) with the truncation data.

    Both sums run on integers scaled by 2^W, and their product is rounded once.
    X_p = p^{-s} 2^W is `inverse_power` at primes p only, 2^-(P+GUARD_BITS)
    relative, P the working precision, and X_n = X_p X_{n/p} >> W along smallest
    prime factors (kept for n <= N/2).  The alpha sum adds x X_n // den and,
    apart, y X_n // den for the triple (x, y, den) of alpha(n); the chi-zeta sum
    adds n^{-u} = n^{k+k'+2} X_n^2 2^{-2W}, u = 2s-2-k-k', at gcd(n, N) = 1, chi
    being trivial mod N.  X_n is off by at most 2 log2(N) units of 2^-W (and
    log2 N times the X_p relative), so with |x|, |y| < 2^B and W = P + 2 GUARD_BITS
    + B + ceil((k+k'+2)/2 bits(N)) the alpha sum is off by at most N (2 log2 N + 2)
    2^{B-W} and the chi-zeta sum, which scales it by 2 n^{k+k'+2-Re s} <
    2 N^{(k+k')/2}, by 4 log2(N) N^{(k+k')/2+1} 2^-W: both below 2^-P.
    """
    with mp_context():
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        kk = series.shift_weight
        if mpmath.re(s_m) <= kk / 2 + 2:
            raise LSeriesError(f"series truncation needs Re(s) > {kk / 2 + 2}")
        table = series.alpha_table(n_cutoff)
        e = series.form.coefficient_field.e or 0
        xs, ys, _ = zip(*table[1:])
        w = (mpmath.mp.prec + GUARD_BITS - (-(kk + 2) * int(n_cutoff).bit_length() // 2)
             + max(max(map(abs, xs)), max(map(abs, ys))).bit_length()
             + (e or 1).bit_length())
        level = series.rational_level
        spf = smallest_prime_factors(n_cutoff)
        powers = [None] * (n_cutoff // 2 + 1)
        sx = sy = zeta = 0
        for n in range(1, n_cutoff + 1):
            p = spf[n]
            xn = fixed(inverse_power(n, s_m), w) if p == n else powers[p] * powers[n // p] >> w
            if n < len(powers):
                powers[n] = xn
            x, y, den = table[n]
            sx += x * xn // den
            sy += y * xn // den
            if math.gcd(n, level) == 1:
                zeta += n ** (kk + 2) * xn * xn
        lch = zeta << w  # scaled 2^{3W}
        dirichlet = sx * (1 << w) + sy * math.isqrt(e << 2 * w)  # 2^{2W}
        report = {"n_cutoff": n_cutoff, "zeta_argument": complex(series.zeta_argument(s_m)),
                  "chi_modulus": level,
                  "normalization": "L_(N)(chi, 2s-2-k-k') * sum alpha(n) n^-s"}
        return from_fixed(lch * dirichlet, 5 * w), report


def _series_div(num, den, order, e):
    """Power series num/den of triples over Q(sqrt e) to the given order (den[0]
    must be 1), by long division: rem[i] is final once the terms before it are subtracted."""
    if den[0] != (1, 0, 1):
        raise LSeriesError("local factor series needs unit constant term")
    rem = list(num[:order]) + [(0, 0, 1)] * max(0, order - len(num))
    for i in range(order):
        for j in range(1, min(len(den), order - i)):
            rem[i + j] = _plus(rem[i + j], _times(rem[i], den[j], e), -1)
    return rem


def euler_product_L(series, s, ell_cutoff=500):
    """Truncated Euler product of the imprimitive Asai L-function over the
    good primes l <= ell_cutoff, each factor series.local_factor(l) at X = l^{-s}
    (`inverse_power`); local_factor refuses a prime l | N.  Each
    factor is exact at that rounded l^{-s} but for its last unit, and the
    product runs on integers scaled by 2^W, W = GUARD_BITS more than the
    working precision, losing at most two units of 2^-W (times its size) per
    prime.
    """
    e = series.form.coefficient_field.e or 0
    with mp_context():
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        w = mpmath.mp.prec + GUARD_BITS
        total = 1 << w
        for ell in primes_up_to(int(ell_cutoff)):
            num, den = series.local_factor(ell)
            total = total * _local_value(num, den, inverse_power(ell, s_m), w, e) >> w
        report = {"ell_cutoff": int(ell_cutoff), "primitive": False, "bad_primes": []}
        return from_fixed(total, w), report


def _local_value(num, den, x, bits, e):
    """num(x) / den(x) 2^bits rounded down, for polynomials (low degree first)
    over Q(sqrt(e)), e = 0 over Q: at x = M 2^-E exactly, M an int or Gauss, each
    is (a + b sqrt(e)) / q on integers, and sqrt(e) (if e) and i (if x is complex)
    leave the divisor by conjugates before the one division.  Both constant terms
    are 1: once |x| < 2^-(bits + B + 4), with every coefficient below 2^B, the
    later terms move the value by under one unit, and 2^bits is returned without
    building any x^i 2^(i E).  Each coefficient's coordinates are read once."""
    m, shift = exact_fixed(x)
    num, den = [_coords(c) for c in num], [_coords(c) for c in den]
    tiny = shift - (abs(m.real) + abs(m.imag)).bit_length()  # |x| < 2^-tiny
    if tiny >= bits + 4 + max((abs(u) + abs(v) * (math.isqrt(e) + 1)).bit_length()
                              for u, v, _ in (*num, *den)):
        return 1 << bits
    (a, b, qa), (c, d, qc) = _poly_at(num, m, shift), _poly_at(den, m, shift)
    top, norm = a << bits, c
    if e:   # (a + b r) / (c + d r) = (ac - e bd + (bc - ad) r) / (c^2 - e d^2), r = sqrt(e)
        top = (a * c - e * b * d) * (1 << bits) + (b * c - a * d) * math.isqrt(e << 2 * bits)
        norm = c * c - e * d * d
    if isinstance(norm, int):   # a real x
        return top * qc // (qa * norm)
    return top * qc * norm.conjugate() // (qa * (norm.real ** 2 + norm.imag ** 2))


def _poly_at(coords, m, shift):
    """(a, b, q) with (a + b sqrt(e)) / q the polynomial at m 2^-shift: Horner
    on the triples (x, y, den) of its coefficients over their common denominator."""
    lcm = math.lcm(*(den for *_, den in coords))
    a = b = 0
    for i, (x, y, den) in enumerate(reversed(coords)):
        a = a * m + (x * (lcm // den) << i * shift)
        b = b * m + (y * (lcm // den) << i * shift)
    return a, b, lcm << (len(coords) - 1) * shift


def euler_product_coefficients(series, n_max):
    """Dirichlet coefficients of the Euler product, exact, up to n_max.

    Expands the product over good l of series.local_factor(l) as a Dirichlet
    series; used to cross-check multiplicativity.  The local factors read
    lambda(P) and eps(P) alone, never the alpha table or a stored lambda(P^e)
    with e >= 2, so the comparison with the Dirichlet coefficients stays
    independent.
    """
    local, cf = {}, series.form.coefficient_field
    for ell in primes_up_to(n_max):
        order = max(k for k in range(1, n_max.bit_length() + 1) if ell ** k <= n_max)
        num, den = ([_coords(c) for c in poly] for poly in series.local_factor(ell))
        coeffs = _series_div(num, den, order + 1, cf.e or 0)
        local.update(((ell, k), coeffs[k]) for k in range(1, order + 1))
    return [None] + [QuadElt.from_ints(*c, cf) for c in
                     _multiplicative_table(n_max, (1, 0, 1), local, cf.e or 0)[1:]]


def imprimitive_coefficients(series, n_max):
    """Exact Dirichlet coefficients of L^imp: sum_{m^2 | n} chi(m) m^{k+k'+2} alpha(n/m^2)."""
    table, kk = series.alpha_table(n_max), series.shift_weight
    out = [[0, 0, 1] for _ in range(n_max + 1)]   # triples (x, y, den), summed over m
    for m in range(1, math.isqrt(n_max) + 1):
        if math.gcd(m, series.rational_level) == 1:
            c = m ** (kk + 2)
            for (x, y, den), acc in zip(table[1:], out[m * m::m * m]):   # acc of n = m^2 j
                acc[:] = acc[0] * den + c * x * acc[2], acc[1] * den + c * y * acc[2], acc[2] * den
    return [None] + [QuadElt.from_ints(*acc, series.form.coefficient_field) for acc in out[1:]]


# -- closed-form constants -----------------------------------------------------


@dataclass(frozen=True)
class SymbolicConstant:
    """rational * pi^pi_exp * i^i_exp * sqrt(disc)^sqrt_disc_exp, exact; the
    constants here are real, so i_exp is 0."""
    rational: Fraction
    pi_exp: int
    i_exp: int
    sqrt_disc_exp: int
    disc: int

    @staticmethod
    def normalised(rational, pi_exp, sqrt_disc_exp, disc):
        """The constant with sqrt(disc) folded into the rational part down to
        an exponent of -1, 0 or 1."""
        rational = Fraction(rational)
        if abs(sqrt_disc_exp) >= 2:
            fold = sqrt_disc_exp // 2 if sqrt_disc_exp > 0 else -((-sqrt_disc_exp) // 2)
            rational *= Fraction(disc) ** fold
            sqrt_disc_exp -= 2 * fold
        return SymbolicConstant(rational, pi_exp, 0, sqrt_disc_exp, disc)

    def numeric(self):
        with mp_context():
            val = mpmath.mpf(self.rational.numerator) / self.rational.denominator
            val = val * mpmath.pi ** self.pi_exp * mpmath.sqrt(self.disc) ** self.sqrt_disc_exp
            return mpmath.mpc(val)

    def to_json(self):
        value = self.numeric()
        return {"rational": f"{self.rational.numerator}/{self.rational.denominator}",
                "pi_exp": self.pi_exp, "i_exp": self.i_exp,
                "sqrt_disc_exp": self.sqrt_disc_exp, "disc": self.disc,
                "numeric": [float(value.real), float(value.imag)]}


def unfolding_constant(k, kprime, j, n_level, disc):
    """Constant multiplying (d/ds) L^imp at s = 1+j in the unfolded period:

        (-1)^{k'-j} D^{(j+1)/2} Gamma(j+1)
        / [N^{k+k'-2j} 2^{k-k'+2j+2} (-i)^{k-k'} pi^{2j+1-k'} (k'-j)!].
    """
    k, kprime, j = int(k), int(kprime), int(j)
    if not 0 <= j <= kprime <= k:
        raise LSeriesError("need 0 <= j <= k' <= k")
    _check_parity(k, kprime)
    rational = Fraction((-1) ** (kprime - j) * math.factorial(j),
                        n_level ** (k + kprime - 2 * j)
                        * 2 ** (k - kprime + 2 * j + 2)
                        * math.factorial(kprime - j))
    # 1/(-i)^{k-k'} = (-1)^{(k-k')/2} for k = k' mod 2
    rational *= (-1) ** (((k - kprime) // 2) % 2)
    return SymbolicConstant.normalised(rational, -(2 * j + 1 - kprime), j + 1, disc)


def regulator_constant(k, kprime, j, disc):
    """(-1)^{k'-j} (2 pi i)^{k+k'-2j} D^{(j+1)/2} k! k'! / ((k-j)! (k'-j)!)."""
    k, kprime, j = int(k), int(kprime), int(j)
    if not 0 <= j <= min(k, kprime):
        raise LSeriesError("need 0 <= j <= min(k, k')")
    _check_parity(k, kprime)
    e = k + kprime - 2 * j
    rational = Fraction((-1) ** (kprime - j) * 2 ** e
                        * math.factorial(k) * math.factorial(kprime),
                        math.factorial(k - j) * math.factorial(kprime - j))
    rational *= (-1) ** ((e // 2) % 2)  # i^e for even e
    return SymbolicConstant.normalised(rational, e, j + 1, disc)


def _check_parity(k, kprime):
    """Refuse odd k - k': there both constants carry a factor i, which the
    rational signs above do not hold (every Weight has k = k' mod 2)."""
    if (k - kprime) % 2:
        raise LSeriesError(f"need k = k' mod 2, got k - k' = {k - kprime}")
