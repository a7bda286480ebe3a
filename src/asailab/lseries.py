"""The imprimitive Asai L-function: Dirichlet series, Euler product, bad-prime
error polynomials, forced-vanishing bookkeeping, and the closed-form
unfolding/regulator constants.

L^imp(F, s) = L_(N)(chi, 2s - 2 - k - k') * sum_{n>=1} alpha(n) n^{-s},
chi the nebentype restricted to (Z/N)^x, N the positive generator of
(level cap Z).  The shift 2s - 2 - k - k' is the one forced by the local
Hecke identity sum_j alpha(l^j) X^j = (1 - chi(l) l^{k+k'+2} X^2) / P_l(F, X)
at good unramified l; with it the Euler product over good primes of
P_l(F, l^{-s})^{-1} reproduces the Dirichlet series exactly.

At a ramified good prime the local factor is the rational function forced by
the recursion: (1 + l^{w-1} eps(P) Y) / ((1 - a^2 Y)(1 - b^2 Y)) times the
zeta factor, Y = l^{-2(t+t')} X^2, a b = l^{w-1} eps(P), a + b = lambda(P).
"""

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import mpmath

from .asairep import asai_charpoly
from .coeffs import QuadElt
from .eigenform import _primes_up_to
from .precision import mp_context


class LSeriesError(ValueError):
    pass


def dirichlet_alpha_table(form, n_max):
    """alpha(n) for 1 <= n <= n_max by a multiplicative sieve."""
    n_max = int(n_max)
    one = form.coefficient_field.one()
    table = [None] * (n_max + 1)
    table[1] = one
    spf = list(range(n_max + 1))  # smallest prime factor
    for p in _primes_up_to(n_max):
        for q in range(p, n_max + 1, p):
            if spf[q] == q and q != p:
                spf[q] = p
        spf[p] = p
    prime_power_alpha = {}
    for p in _primes_up_to(n_max):
        pe = p
        e = 1
        while pe <= n_max:
            prime_power_alpha[pe] = form.alpha(pe)
            pe *= p
            e += 1
    for n in range(2, n_max + 1):
        p = spf[n]
        pe = p
        m = n // p
        while m % p == 0:
            pe *= p
            m //= p
        table[n] = prime_power_alpha[pe] * table[m] if m > 1 else prime_power_alpha[pe]
    return table


@dataclass
class BadFactorSet:
    """C_l error polynomials at l | N, with optional primitive P_l data.

    Polynomials are coefficient lists in X, constant term first, exact.
    """
    c_polys: dict = dataclass_field(default_factory=dict)
    p_polys: dict = dataclass_field(default_factory=dict)

    def add(self, ell, c_poly, p_poly=None):
        self.c_polys[int(ell)] = [Fraction(c) if not isinstance(c, QuadElt) else c
                                  for c in c_poly]
        if p_poly is not None:
            self.p_polys[int(ell)] = [Fraction(c) if not isinstance(c, QuadElt) else c
                                      for c in p_poly]
        return self


class AsaiLSeries:
    """Imprimitive Asai L-series of a form, with a cached coefficient table."""

    def __init__(self, form, chi=None):
        self.form = form
        self.chi = chi if chi is not None else form.chi_restriction()
        self.rational_level = form.rational_level()
        if self.chi.modulus != self.rational_level:
            raise LSeriesError(
                f"chi modulus {self.chi.modulus} != level generator {self.rational_level}")
        self._alpha_cache = []

    def alpha_table(self, n_max):
        if len(self._alpha_cache) <= n_max:
            self._alpha_cache = dirichlet_alpha_table(self.form, n_max)
        return self._alpha_cache

    @property
    def shift_weight(self):
        w = self.form.weight
        return w.k + w.kprime

    def zeta_argument(self, s):
        return 2 * s - 2 - self.shift_weight


def _to_mp(value):
    if isinstance(value, QuadElt):
        return value.to_mpf()
    value = Fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


def imprimitive_L(form, s, n_cutoff=4000, chi=None, prec=None):
    """Truncated L_(N)(chi, 2s-2-k-k') * sum_{n <= n_cutoff} alpha(n) n^{-s}.

    Requires Re(s) > (k+k')/2 + 2 for a meaningful truncation.  Returns
    (value, report) with the truncation data.
    """
    series = form if hasattr(form, "alpha_table") else AsaiLSeries(form, chi)
    with mp_context(prec):
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        kk = series.shift_weight
        if mpmath.re(s_m) <= kk / 2 + 2:
            raise LSeriesError(f"series truncation needs Re(s) > {kk / 2 + 2}")
        table = series.alpha_table(n_cutoff)
        dirichlet = mpmath.mpc(0)
        for n in range(1, n_cutoff + 1):
            a_n = table[n]
            if a_n:
                dirichlet += _to_mp(a_n) * mpmath.power(n, -s_m)
        u = series.zeta_argument(s_m)
        lch = _dirichlet_l_truncated(series.chi, u, n_cutoff)
        value = lch * dirichlet
        report = {"n_cutoff": n_cutoff, "zeta_argument": complex(u),
                  "chi_modulus": series.chi.modulus,
                  "normalization": "L_(N)(chi, 2s-2-k-k') * sum alpha(n) n^-s"}
        return +value, report


def _dirichlet_l_truncated(chi, u, n_cutoff):
    """Plain partial sum of L_(N)(chi, u); adequate at large real arguments."""
    acc = mpmath.mpc(0)
    for n in range(1, n_cutoff + 1):
        v = chi(n)
        if v is None:
            continue
        if v.is_real():
            acc += int(v.as_rational()) * mpmath.power(n, -u)
        else:
            acc += v.to_mpc() * mpmath.power(n, -u)
    return acc


def _ramified_local_factor_series(form, ell, order):
    """Power-series coefficients (in X = l^{-s}) of the imprimitive local
    factor at a ramified good prime, zeta factor included.

    alpha(l^j) = l^{-j(t+t')} lambda(P^{2j}) gives, with Xt = l^{-(t+t')} X,
        sum_j alpha(l^j) X^j = (1 + ab Xt) / ((1 - a^2 Xt)(1 - b^2 Xt)),
    a + b = lambda(P), ab = l^{w-1} eps(P); the zeta factor contributes
    (1 - chi(l) l^{k+k'+2} X^2)^{-1} with chi(l) = eps(P)^2.
    """
    p = form.field.primes_above(ell)[0]
    w = form.weight
    lam = form.lambda_of(p)
    eps = form.eps_of(p)
    tsum = w.t1 + w.t2
    tw = Fraction(1, ell ** tsum) if tsum >= 0 else Fraction(ell ** (-tsum))
    ab = Fraction(ell ** (w.w - 1)) * eps          # a b
    s2 = lam * lam - 2 * ab                        # a^2 + b^2
    chi_l = eps * eps
    kk = w.k + w.kprime
    one = form.coefficient_field.one()
    num = [one, tw * ab]
    den = [one, -(tw * s2), (tw * tw) * (ab * ab)]
    series = _series_div(num, den, order + 1)
    zeta_den = [one, one * 0, -(Fraction(ell ** (kk + 2)) * chi_l)]
    return _series_div(series, zeta_den, order + 1)


def _series_div(num, den, order):
    """Power series num/den to the given order (den[0] must be a unit)."""
    num = list(num) + [num[0] * 0] * max(0, order - len(num))
    out = []
    inv0 = den[0]
    if inv0 != 1:
        raise LSeriesError("local factor series needs unit constant term")
    rem = list(num[:order])
    for i in range(order):
        c = rem[i]
        out.append(c)
        for j in range(1, min(len(den), order - i)):
            rem[i + j] = rem[i + j] - c * den[j]
    return out


def _series_inverse(poly, order):
    one = poly[0] * 0 + 1
    return _series_div([one], poly, order)


def euler_product_L(form, s, ell_cutoff=500, bad=None, chi=None, primitive=False,
                    prec=None):
    """Truncated Euler product of the (im)primitive Asai L-function.

    Good unramified l: P_l(F, l^{-s})^{-1}.  Ramified good l: the forced
    rational local factor.  For l | N the bad set must supply C_l (and the
    primitive P_l when primitive=True); the imprimitive local factor used is
    C_l(X) * P_l(X)^{-1} when both are present, C_l alone with a warning
    diagnostic otherwise.
    """
    series = form if hasattr(form, "alpha_table") else AsaiLSeries(form, chi)
    form = series.form
    bad = bad or BadFactorSet()
    n_level = series.rational_level
    disc = form.field.disc
    with mp_context(prec):
        s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(complex(s).real)
        total = mpmath.mpc(1)
        for ell in _primes_up_to(int(ell_cutoff)):
            x = mpmath.power(ell, -s_m)
            if n_level % ell == 0:
                if ell not in bad.c_polys:
                    raise LSeriesError(f"missing bad factor C_l at l = {ell}")
                c_val = _poly_eval_mp(bad.c_polys[ell], x)
                if primitive or ell in bad.p_polys:
                    if ell not in bad.p_polys:
                        raise LSeriesError(f"primitive mode needs P_l at l = {ell}")
                    p_val = _poly_eval_mp(bad.p_polys[ell], x)
                    total *= (1 if primitive else c_val) / p_val
                else:
                    total *= c_val
                continue
            if disc % ell == 0:
                if primitive:
                    raise LSeriesError(
                        f"primitive local factor at ramified l = {ell} needs inertia data")
                coeffs = _ramified_local_factor_series(form, ell, 40)
                total *= _poly_eval_mp(coeffs, x)
                continue
            pl = asai_charpoly(form, ell)
            total *= 1 / _poly_eval_mp(pl.coeffs, x)
        report = {"ell_cutoff": int(ell_cutoff), "primitive": primitive,
                  "bad_primes": sorted(bad.c_polys)}
        return +total, report


def _poly_eval_mp(coeffs, x):
    acc = mpmath.mpc(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + _to_mp(c)
    return acc


def euler_product_coefficients(form, n_max, chi=None):
    """Dirichlet coefficients of the Euler product, exact, up to n_max.

    Expands prod over good l of P_l(F, X)^{-1} (and the forced ramified
    factors) as a Dirichlet series; used to cross-check multiplicativity.
    """
    series = form if hasattr(form, "alpha_table") else AsaiLSeries(form, chi)
    form = series.form
    n_level = series.rational_level
    disc = form.field.disc
    one = form.coefficient_field.one()
    out = [None] + [one] + [form.coefficient_field.zero()] * (n_max - 1)
    for ell in _primes_up_to(n_max):
        if n_level % ell == 0:
            raise LSeriesError("coefficient expansion only at good levels")
        order = 0
        pe = 1
        while pe * ell <= n_max:
            pe *= ell
            order += 1
        if disc % ell == 0:
            local = _ramified_local_factor_series(form, ell, order)
        else:
            pl = asai_charpoly(form, ell)
            local = _series_inverse([one * c if not isinstance(c, QuadElt) else c
                                     for c in pl.coeffs], order + 1)
        new = [None] + [form.coefficient_field.zero()] * n_max
        for n in range(1, n_max + 1):
            acc = form.coefficient_field.zero()
            pe = 1
            e = 0
            while pe <= n:
                if n % pe == 0 and e < len(local):
                    acc = acc + local[e] * out[n // pe]
                pe *= ell
                e += 1
            new[n] = acc
        # only multiples of ell change; but recomputing all keeps it simple
        out = new
    return out


def imprimitive_coefficients(series, n_max):
    """Exact Dirichlet coefficients of L^imp: sum_{m^2 | n} chi(m) m^{k+k'+2} alpha(n/m^2)."""
    form = series.form
    table = series.alpha_table(n_max)
    kk = series.shift_weight
    out = [None] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = form.coefficient_field.zero()
        m = 1
        while m * m <= n:
            if n % (m * m) == 0:
                v = series.chi(m)
                if v is not None:
                    acc = acc + Fraction(int(v.as_rational()) * m ** (kk + 2)) \
                        * table[n // (m * m)]
            m += 1
        out[n] = acc
    return out


# -- C_l divisibility and forced vanishing ------------------------------------

def check_Cl_divisibility(bad, k, kprime, prec=None, tol=1e-8):
    """Per-prime report: exact C_l | P_l division and root-location check.

    Root check: every root of C_l(l^{-s}) must have Re(s) in
    [(k+k')/2, (k+k'+2)/2], i.e. |X-root| in [l^{-(k+k'+2)/2}, l^{-(k+k')/2}].
    """
    report = {}
    for ell, c_poly in sorted(bad.c_polys.items()):
        entry = {"divides": None, "roots_in_window": None, "root_moduli": []}
        if ell in bad.p_polys:
            entry["divides"] = _poly_divides(c_poly, bad.p_polys[ell])
        with mp_context(prec):
            coeffs = [_to_mp(c) for c in c_poly]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) > 1:
                roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200,
                                         extraprec=80)
                lo = mpmath.power(ell, -Fraction(k + kprime + 2, 2))
                hi = mpmath.power(ell, -Fraction(k + kprime, 2))
                ok = all(lo - tol <= abs(r) <= hi + tol for r in roots)
                entry["roots_in_window"] = bool(ok)
                entry["root_moduli"] = [float(abs(r)) for r in roots]
            else:
                entry["roots_in_window"] = True
        report[ell] = entry
    return report


def _poly_divides(c_poly, p_poly):
    """Exact divisibility of polynomials with unit constant terms."""
    deg_c = _degree(c_poly)
    deg_p = _degree(p_poly)
    if deg_c > deg_p:
        return False
    quot = _series_div(list(p_poly), list(c_poly), deg_p - deg_c + 1)
    # verify: quot * c == p exactly
    prod = [Fraction(0)] * (deg_p + 1)
    for i, a in enumerate(quot):
        for j, b in enumerate(c_poly):
            if i + j <= deg_p:
                prod[i + j] += Fraction(a) * Fraction(b) if not isinstance(a, QuadElt) \
                    else a * b
    return all(prod[d] == (list(p_poly) + [0] * (deg_p + 1))[d] for d in range(deg_p + 1))


def _degree(poly):
    deg = 0
    for i, c in enumerate(poly):
        if c != 0:
            deg = i
    return deg


def forced_vanishing_order(form, j):
    """Order-1 vanishing assertion at s = 1 + j under |k - k'| >= 3.

    Propagates the analytic statement with its hypothesis trail; no numeric
    verification is attempted on synthetic data.
    """
    w = form.weight
    j = int(j)
    if not 0 <= j <= min(w.k, w.kprime):
        raise LSeriesError(f"need 0 <= j <= min(k, k') = {min(w.k, w.kprime)}")
    if abs(w.k - w.kprime) >= 3:
        return {"applicable": True, "order": 1, "at": f"s = {1 + j}",
                "hypothesis": f"|k - k'| = {abs(w.k - w.kprime)} >= 3"}
    return {"applicable": False, "order": None, "at": f"s = {1 + j}",
            "hypothesis": f"|k - k'| = {abs(w.k - w.kprime)} < 3: no claim"}


# -- closed-form constants -----------------------------------------------------


@dataclass(frozen=True)
class SymbolicConstant:
    """rational * pi^pi_exp * i^i_exp * sqrt(disc)^sqrt_disc_exp, exact."""
    rational: Fraction
    pi_exp: int
    i_exp: int
    sqrt_disc_exp: int
    disc: int

    @staticmethod
    def normalised(rational, pi_exp, i_exp, sqrt_disc_exp, disc):
        rational = Fraction(rational)
        i_exp %= 4
        if i_exp >= 2:
            rational, i_exp = -rational, i_exp - 2
        if abs(sqrt_disc_exp) >= 2:
            fold = sqrt_disc_exp // 2 if sqrt_disc_exp > 0 else -((-sqrt_disc_exp) // 2)
            rational *= Fraction(disc) ** fold
            sqrt_disc_exp -= 2 * fold
        return SymbolicConstant(rational, pi_exp, i_exp, sqrt_disc_exp, disc)

    def numeric(self, prec=None):
        with mp_context(prec):
            val = mpmath.mpf(self.rational.numerator) / self.rational.denominator
            val = val * mpmath.pi ** self.pi_exp * mpmath.sqrt(self.disc) ** self.sqrt_disc_exp
            return mpmath.mpc(val) * (1j ** self.i_exp)

    def __mul__(self, other):
        if not isinstance(other, SymbolicConstant):
            return NotImplemented
        if other.disc != self.disc and self.sqrt_disc_exp and other.sqrt_disc_exp:
            raise LSeriesError("mixed discriminants")
        disc = self.disc if self.sqrt_disc_exp or not other.sqrt_disc_exp else other.disc
        return SymbolicConstant.normalised(
            self.rational * other.rational, self.pi_exp + other.pi_exp,
            self.i_exp + other.i_exp, self.sqrt_disc_exp + other.sqrt_disc_exp, disc)

    def to_json(self):
        return {"rational": f"{self.rational.numerator}/{self.rational.denominator}",
                "pi_exp": self.pi_exp, "i_exp": self.i_exp,
                "sqrt_disc_exp": self.sqrt_disc_exp, "disc": self.disc,
                "numeric": [float(mpmath.re(self.numeric())),
                            float(mpmath.im(self.numeric()))]}


def unfolding_constant(k, kprime, j, n_level, disc):
    """Constant multiplying (d/ds) L^imp at s = 1+j in the unfolded period:

        (-1)^{k'-j} D^{(j+1)/2} Gamma(j+1)
        / [N^{k+k'-2j} 2^{k-k'+2j+2} (-i)^{k-k'} pi^{2j+1-k'} (k'-j)!].
    """
    k, kprime, j = int(k), int(kprime), int(j)
    if not 0 <= j <= kprime <= k:
        raise LSeriesError("need 0 <= j <= k' <= k")
    rational = Fraction((-1) ** (kprime - j) * math.factorial(j),
                        n_level ** (k + kprime - 2 * j)
                        * 2 ** (k - kprime + 2 * j + 2)
                        * math.factorial(kprime - j))
    # 1/(-i)^{k-k'} = (-1)^{(k-k')/2} for k = k' mod 2
    rational *= (-1) ** (((k - kprime) // 2) % 2)
    return SymbolicConstant.normalised(rational, -(2 * j + 1 - kprime), 0, j + 1, disc)


def regulator_constant(k, kprime, j, disc):
    """(-1)^{k'-j} (2 pi i)^{k+k'-2j} D^{(j+1)/2} k! k'! / ((k-j)! (k'-j)!)."""
    k, kprime, j = int(k), int(kprime), int(j)
    if not 0 <= j <= min(k, kprime):
        raise LSeriesError("need 0 <= j <= min(k, k')")
    e = k + kprime - 2 * j
    rational = Fraction((-1) ** (kprime - j) * 2 ** e
                        * math.factorial(k) * math.factorial(kprime),
                        math.factorial(k - j) * math.factorial(kprime - j))
    rational *= (-1) ** ((e // 2) % 2)  # i^e for even e
    return SymbolicConstant.normalised(rational, e, 0, j + 1, disc)
