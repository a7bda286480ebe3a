"""Real-analytic Eisenstein series E_alpha^(k)(tau, s), Siegel units, the
Kronecker-limit identity, and the diagonal Mellin/unfolding kernel check.

E_alpha^(k)(tau, s) = (-2 pi i)^{-k} pi^{-s} Gamma(s+k)
                      * sum_{(m,n) in Z^2} y^s / ((m tau + n + alpha)^k
                                                  |m tau + n + alpha|^{2s})

for 0 < alpha < 1 rational, converging for k + 2 Re(s) > 2.  The continuation
is computed from the Fourier expansion: the m = 0 row is a pair of Hurwitz
zetas, the r = 0 tower a Riemann zeta, and the oscillating modes carry
confluent hypergeometric U-factors U(a, 2s+k, 4 pi n Im tau): at integer s
z^-a times a polynomial in 1/z, otherwise taken down a Taylor ladder on
Kummer's equation, in fixed-point integers, from the asymptotic series at the
largest z.  The m = 0 row is memoised without its factor y^s.  The modes of
level n = r m share their U-factors and q^n, so each level is one divisor sum
over r | n of (2 pi r)^{2s+k-1} times a constant of r mod den(alpha), filled
for every level by one sieve.

Poles only occur for k = 0 (at s = 1); every other apparent singularity of
the pieces cancels and the cancelled limits are evaluated analytically.
"""

import cmath
import functools
import math
from fractions import Fraction

import mpmath

from .lseries import dirichlet_alpha_table
from .precision import fixed, from_fixed, mp_context, working_precision


class EisensteinError(ValueError):
    pass


class EisensteinPole(EisensteinError):
    """The requested (k, s) sits on a pole of the continuation."""


def _check_alpha(alpha):
    alpha = Fraction(alpha) % 1
    if alpha == 0:
        raise EisensteinError("alpha must be nonzero mod 1")
    return alpha


def _as_tau(tau):
    t = complex(tau)
    if t.imag <= 0:
        raise EisensteinError("tau must have positive imaginary part")
    return t


def eisenstein_lattice_sum(k, alpha, tau, s, cutoff):
    """Truncated double sum over |m|, |n| <= cutoff, with the prefactor.

    Requires absolute convergence: k + 2 Re(s) > 2.  Truncation error
    dominates, so it runs in double precision: |w|^-2s as the real (|w|^2)^-Re s,
    times a phase at complex s, and w^-k as (conj w / |w|^2)^k; overflow raises.
    """
    k = int(k)
    alpha = _check_alpha(alpha)
    tau_c = _as_tau(tau)
    s_c = complex(s)
    if k + 2 * s_c.real <= 2:
        raise EisensteinError(f"lattice sum diverges at k={k}, Re(s)={s_c.real}")
    val = _lattice_float(k, float(alpha), tau_c, s_c, int(cutoff))
    if not cmath.isfinite(val):
        raise EisensteinError(f"lattice sum at k={k}, s={s} overflows double precision")
    return val


_LATTICE_BLOCK = 16   # rows per numpy array: few Python steps, small temporaries


def _lattice_float(k, alpha, tau, s, cutoff):
    import numpy as np
    ns = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    tot = 0j
    with np.errstate(all="ignore"):   # an overflow shows as a non-finite total
        for lo in range(-cutoff, cutoff + 1, _LATTICE_BLOCK):
            ms = np.arange(lo, min(lo + _LATTICE_BLOCK, cutoff + 1), dtype=np.float64)[:, None]
            u, v = (ms * tau.real + alpha) + ns, ms * tau.imag
            r2 = u * u + v * v
            val = 1.0 if s == 0 else r2 ** -s.real
            if s.imag:
                val = val * np.exp(-1j * s.imag * np.log(r2))
            if k:
                z = np.empty_like(u, dtype=np.complex128)
                z.real, z.imag = (u / r2, -v / r2) if k > 0 else (u, v)
                e = abs(k)   # z^e by repeated squaring
                zk = z if e & 1 else None
                while e > 1:
                    z, e = z * z, e >> 1
                    if e & 1:
                        zk = z if zk is None else zk * z
                val = zk * val
            for row in val.sum(axis=1).tolist():   # row by row, in order of m
                tot += row
    pref = (-2j * math.pi) ** (-k) * math.pi ** (-s) * complex(mpmath.gamma(complex(s + k)))
    return pref * (tau.imag + 0j) ** s * tot


# -- analytic continuation ---------------------------------------------------

def _near_int(x, tol=1e-10):
    r = round(float(x))
    return r if abs(float(x) - r) < tol else None


def _classify_s(s):
    """(is_real, exact integer or None, exact half-integer*2 or None)."""
    s_c = complex(s)
    if s_c.imag != 0:
        return False, None, None
    n = _near_int(s_c.real)
    h = _near_int(2 * s_c.real)
    return True, n, h


def eisenstein_continued(k, alpha, tau, s, prec=None):
    """E_alpha^(k)(tau, s) by the Fourier expansion, valid for all s.

    Agrees with the lattice sum in the convergence region; raises
    EisensteinPole at the k = 0 pole (s = 1).
    """
    k = int(k)
    if k < 0:
        raise EisensteinError("negative weights unsupported; use the alpha -> -alpha symmetry")
    alpha = _check_alpha(alpha)
    _as_tau(tau)
    with mp_context(prec):
        extra = 10 + k
        with mpmath.extraprec(extra * 4):
            tau_m = mpmath.mpc(complex(tau))
            s_m = mpmath.mpc(complex(s)) if complex(s).imag else mpmath.mpf(complex(s).real)
            a_m = mpmath.mpf(alpha.numerator) / alpha.denominator
            val = _continued_impl(k, alpha, a_m, tau_m, s_m, prec)
        # E^(0) is real at real s; drop the roundoff in its imaginary part
        return +mpmath.re(val) if k == 0 and not complex(s).imag else +val


def _continued_impl(k, alpha, a_m, tau, s, prec):
    y = mpmath.im(tau)
    is_real, s_int, s_half2 = _classify_s(s)
    if is_real and s_int is not None:
        s = mpmath.mpf(s_int)

    # genuine pole: k = 0 at s = 1 (the zeta(2s+k-1) pole that nothing cancels)
    if k == 0 and is_real and s_int == 1:
        raise EisensteinPole("E^(0) has its pole at s = 1")

    combined_cancel = (k % 2 == 0) and is_real and s_half2 == 1 - k and s_int is None

    total = mpmath.mpc(0)

    # m = 0 row:  Gamma(s+k) [zeta(k+2s, a) + (-1)^k zeta(k+2s, 1-a)] pi^-s y^s
    if not combined_cancel:
        total += _m0_bracket(k, alpha, s, mpmath.mp.prec) * y ** s

    # r = 0 tower (even k): 2 (2pi)^{1-k} pi^-s y^s (2y)^{1-2s-k}
    #                        * Gamma(2s+k-1) zeta(2s+k-1) / Gamma(s)
    if k % 2 == 0 and not combined_cancel:
        total += _r0_tower(k, y, s, is_real, s_int)

    if combined_cancel:
        total += _cancelled_pair(k, a_m, y)

    total += _oscillating(k, alpha, tau, s, prec)
    return total


@functools.lru_cache(maxsize=1024)
def _m0_bracket(k, alpha, s, prec):
    """The m = 0 row without its y^s: (-2 pi i)^-k pi^-s Gamma(s+k) times the
    Hurwitz pair, or its limit.  It does not depend on tau, so it is memoised;
    `prec`, the working precision, is part of the key only."""
    is_real, s_int, _ = _classify_s(s)
    a_m = mpmath.mpf(alpha.numerator) / alpha.denominator
    outer = (-2j * mpmath.pi) ** (-k) * mpmath.pi ** (-s)
    arg = k + 2 * s
    sign = (-1) ** k
    if is_real and s_int is not None and s_int + k <= 0:
        # Gamma pole at s+k = -n against the Bernoulli zero of the bracket
        n = -(s_int + k)
        zp = mpmath.zeta(arg, a_m, 1) + sign * mpmath.zeta(arg, 1 - a_m, 1)
        return outer * Fraction((-1) ** n, math.factorial(n)) * 2 * zp
    if is_real and _near_int(arg) == 1:
        if k % 2 == 0:
            raise EisensteinPole(f"m=0 row pole at k+2s = 1 (k = {k})")
        bracket = mpmath.psi(0, 1 - a_m) - mpmath.psi(0, a_m)
        return outer * mpmath.gamma(s + k) * bracket
    bracket = mpmath.zeta(arg, a_m) + sign * mpmath.zeta(arg, 1 - a_m)
    return outer * mpmath.gamma(s + k) * bracket


def _r0_tower(k, y, s, is_real, s_int):
    w = 2 * s + k - 1
    outer = 2 * (2 * mpmath.pi) ** (1 - k) * mpmath.pi ** (-s) * y ** s \
        * (2 * y) ** (1 - 2 * s - k)
    if is_real:
        w_int = _near_int(w)
        if w_int == 1:
            # zeta pole; finite iff 1/Gamma(s) vanishes (s a nonpositive integer)
            if s_int is None or s_int > 0:
                raise EisensteinPole("r = 0 tower pole at 2s+k = 2")
            npr = -s_int
            return outer * ((-1) ** npr * mpmath.factorial(npr)) / 2
        if w_int is not None and w_int <= 0:
            n = -w_int
            gamma_res = mpmath.mpf((-1) ** n) / mpmath.factorial(n)
            if s_int is not None and s_int <= 0:
                # Gamma(w) pole against the zero of 1/Gamma(s)
                npr = -s_int
                h = gamma_res / 2 * ((-1) ** npr * mpmath.factorial(npr)) * mpmath.zeta(w_int)
                return outer * h
            if n % 2 == 0 and n >= 2:
                # Gamma(w) pole against the trivial zero of zeta
                h = gamma_res * mpmath.zeta(mpmath.mpf(w_int), derivative=1) * mpmath.rgamma(s)
                return outer * h
            raise EisensteinPole(f"r = 0 tower pole at 2s+k-1 = {w_int}")
    return outer * mpmath.gamma(w) * mpmath.zeta(w) * mpmath.rgamma(s)


def _cancelled_pair(k, a_m, y):
    """m=0 row + r=0 tower at s0 = (1-k)/2 (even k): the poles cancel.

    The finite part is f(s0) * [psi((1+k)/2) + psi((1-k)/2) + 2 log(2y)
                                - psi(alpha) - psi(1-alpha) + 2 gamma - 2 log(2 pi)],
    with f(s0) = (-2 pi i)^{-k} pi^{-s0} y^{s0} Gamma((1+k)/2).
    """
    s0 = mpmath.mpf(1 - k) / 2
    f0 = (-2j * mpmath.pi) ** (-k) * mpmath.pi ** (-s0) * y ** s0 * mpmath.gamma(s0 + k)
    zeta_p0 = -mpmath.log(2 * mpmath.pi) / 2  # zeta'(0)
    bracket = (mpmath.psi(0, (1 + k) / mpmath.mpf(2))
               + mpmath.psi(0, (1 - k) / mpmath.mpf(2))
               + 2 * mpmath.log(2 * y)
               - mpmath.psi(0, a_m) - mpmath.psi(0, 1 - a_m)
               + 2 * mpmath.euler + 4 * zeta_p0)
    return f0 * bracket


def _hyperu_values(a, b, z1, N):
    """[U(a, b, n z1) for n = 1..N] from one downward ladder.

    Down from n = N, each value is the asymptotic series z^-a 2F0(a, 1+a-b;;
    -1/z) (DLMF 13.7.3) while it converges at working precision (everywhere
    when it terminates: a or 1+a-b a nonpositive integer).  Below, Taylor
    steps of -z1 on Kummer's equation z u'' + (b - z) u' - a u = 0 carry
    (U, U') down, from U' = -a U(a+1, b+1, z) (DLMF 13.3.22).  A step from
    m z1 converges at ratio 1/m; the other solution, ~e^z, decays going down,
    and so does its share of the rounding error.  The steps run in fixed
    point on one scalar of `precision`, an int at real a and b and a Gauss at
    complex ones: the coefficients scaled by 2^q, q = prec + 20, and
    (U, -z1 U') by 2^p, p = q - mag(U) taken afresh each step; each term
    divides back with floor division, off by at most one unit.
    """
    def series(a, b, n):   # at z = n z1; raises NoConvergence
        with mpmath.extraprec(10):
            z = n * z1
            return mpmath.hyp2f0(a, 1 + a - b, -1 / z, force_series=True) / z ** a

    vals = {}
    try:
        for n in range(N, 0, -1):
            vals[n] = series(a, b, n)
    except mpmath.mp.NoConvergence:
        m = n + 1   # the ladder starts where both series converge, above z_N if need be
        while True:
            try:
                u, du = series(a, b, m), -a * series(a + 1, b + 1, m)
                break
            except mpmath.mp.NoConvergence:
                m += 1
        prec = mpmath.mp.prec
        q = prec + 20
        zf, az, bf = fixed(z1, q), fixed(a * z1, q), fixed(b, q)
        p = q - int(mpmath.mag(u))
        u, v = fixed(u, p), fixed(-z1 * du, p)
        for m in range(m, 1, -1):
            # the terms t_j = c_j h^j of the step h = -z1 from m z1 follow
            # t_{j+2} = ((j+a) z1 t_j + (j+1)(j+b-m z1) t_{j+1}) / (m (j+1)(j+2));
            # U moves by their sum, -z1 U' becomes sum j t_j, and the step ends
            # after two terms below 2^-(prec+4) |U| z1 / max(z1, j)
            bz, e1 = bf - m * zf, max(abs(u.real), abs(u.imag)) >> (prec + 4)
            ez, jz = e1 * zf >> q, zf >> q                  # jz = floor(z1)
            t0, t1, tail, dv = u, v, v, v
            j = small = 0
            while small < 2:
                t0, t1 = t1, ((az + j * zf) * t0 + (j + 1) * ((j << q) + bz) * t1) \
                    // (m * (j + 1) * (j + 2) << q)
                j += 1
                tail, dv = tail + t1, dv + (j + 1) * t1
                size = abs(t1.real) + abs(t1.imag)
                small = small + 1 if (size < e1 if j < jz else size * (j + 1) < ez) else 0
            u, v = u + tail, dv
            value = from_fixed(u, p)
            vals[m - 1] = value.real if isinstance(u, int) else value
            shift = q - max(abs(u.real), abs(u.imag)).bit_length()   # rescale to the new |U|
            u, v = (u << shift, v << shift) if shift >= 0 else (u >> -shift, v >> -shift)
            p += shift
    return [vals[n] for n in range(1, N + 1)]


def _oscillating(k, alpha, tau, s, prec):
    """The r != 0 Fourier modes, with hypergeometric-U coefficients.

    Level n = r m (r | n) is D[n] (u1_n q_n + (-1)^k poch u2_n conj q_n), with
    q_n = e^{2 pi i n tau} = q_1^n (a running product), Z_r = e^{2 pi i r alpha}
    and the divisor convolution D[n] = sum_{r | n} (2 pi r)^{2s+k-1} (Z_r +
    (-1)^k conj Z_r).  Z_r depends on r num(alpha) mod den(alpha) only, and one
    sieve over r fills D.  Each U-column comes from one ladder; U(0, b, z) = 1
    and the Pochhammer zero at nonpositive integer s shortcut the holomorphic
    specialisations.
    """
    y = mpmath.im(tau)
    pref = y ** s * (2 * mpmath.pi) ** (1 - k) * mpmath.pi ** (-s)
    poch = mpmath.rf(s, k)
    cutoff = (working_precision(prec) + 25) * mpmath.log(2)
    two_pi = 2 * mpmath.pi
    n_max = int(cutoff / (two_pi * y))
    z1 = 4 * mpmath.pi * y
    us1 = [mpmath.mpf(1)] * n_max if s == 0 else _hyperu_values(s, 2 * s + k, z1, n_max)
    us2 = [None] * n_max if poch == 0 else _hyperu_values(s + k, 2 * s + k, z1, n_max)
    sign = (-1) ** k
    num, den = alpha.numerator, alpha.denominator
    zs = (mpmath.expjpi(mpmath.mpf(2 * j) / den) for j in range(den))
    cs = [z + sign * mpmath.conj(z) for z in zs]
    dsum = [0] * (n_max + 1)
    for r in range(1, n_max + 1):
        term = (two_pi * r) ** (2 * s + k - 1) * cs[r * num % den]
        for n in range(r, n_max + 1, r):
            dsum[n] += term
    acc, q1, q = mpmath.mpc(0), mpmath.expjpi(2 * tau), 1
    for n, u1, u2 in zip(range(1, n_max + 1), us1, us2):
        q *= q1
        col = u1 * q if u2 is None else u1 * q + sign * poch * u2 * mpmath.conj(q)
        acc += dsum[n] * col
    return pref * acc


# -- Siegel units and the Kronecker limit --------------------------------------

def siegel_unit(alpha, tau, terms=200, prec=None):
    """g_{0,alpha}(tau) = q^{1/12} (1 - q_a) prod_{n>=1} (1 - q^n q_a)(1 - q^n/q_a).

    Truncated after `terms` product factors.  Only |g| is canonical (the
    q^{1/12} branch is fixed as exp(2 pi i tau / 12)).
    """
    alpha = _check_alpha(alpha)
    _as_tau(tau)
    if terms < 1:
        raise EisensteinError("need terms >= 1")
    with mp_context(prec):
        tau_m = mpmath.mpc(complex(tau))
        q = mpmath.exp(2j * mpmath.pi * tau_m)
        qa = mpmath.expjpi(2 * mpmath.mpf(alpha.numerator) / alpha.denominator)
        g = mpmath.exp(2j * mpmath.pi * tau_m / 12) * (1 - qa)
        qn = mpmath.mpc(1)
        for _ in range(1, int(terms)):
            qn *= q
            g *= (1 - qn * qa) * (1 - qn / qa)
        return +g


def kronecker_limit_check(alpha, tau, prec=None, terms=200):
    """|E^(0)_alpha(tau, 0) + 2 log |g_{0,alpha}(tau)||; small iff the identity holds."""
    alpha = _check_alpha(alpha)
    with mp_context(prec):
        e0 = eisenstein_continued(0, alpha, tau, 0, prec)
        g = siegel_unit(alpha, tau, terms, prec)
        return abs(mpmath.re(e0) + 2 * mpmath.log(abs(g))) + abs(mpmath.im(e0))


# -- diagonal Mellin / unfolding kernel -----------------------------------------

def diagonal_mellin_check(form, sprime, y_cutoff=40.0, n_max=600):
    """Mellin transform of the trace-zero modes against the Dirichlet series.

    lhs = integral_0^{y_cutoff} W(y) y^{s'} dy/y with
          W(y) = sum_{n >= 1} alpha(n) exp(-4 pi n y / sqrt(Delta)),
    the x-average of the anti-holomorphic diagonal restriction (trace-zero
    Fourier modes are indexed by -n/sqrt(Delta)); the normalisation
    c(different^{-1}) = Delta^{-(t+t')/2} makes the coefficients exactly
    alpha(n).

    rhs = Gamma(s') (sqrt(Delta)/(4 pi))^{s'} sum alpha(n) n^{-s'}.

    Returns (lhs, rhs, relative residual).  Float64 quadrature on 48 log-spaced
    Gauss-Legendre panels of 24 nodes; adequate for the 1e-4 scale checks this
    supports.
    """
    import numpy as np
    sprime = float(sprime)
    if sprime <= 1:
        raise EisensteinError("need Re(s') > 1 for the kernel integral")
    disc = form.field.disc
    c = 4 * math.pi / math.sqrt(disc)
    alphas = np.array([float(a) for a in dirichlet_alpha_table(form, n_max)[1:]])
    ns = np.arange(1, n_max + 1, dtype=float)
    if not alphas.any():
        return 0.0, 0.0, 0.0
    # quadrature nodes: log-spaced panel edges between y_cutoff/2^48 and y_cutoff
    edges = [y_cutoff * 2.0 ** (-i) for i in range(48, -1, -1)]
    edges[0] = 0.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(24)
    lhs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        ys = mid + half * gl_x
        wts = half * gl_w
        wvals = np.exp(-c * np.outer(ys, ns)) @ alphas
        lhs += float(np.sum(wts * wvals * ys ** (sprime - 1.0)))
    dirichlet = float(np.sum(alphas * ns ** (-sprime)))
    rhs = math.gamma(sprime) * (math.sqrt(disc) / (4 * math.pi)) ** sprime * dirichlet
    denom = max(abs(lhs), abs(rhs))
    resid = abs(lhs - rhs) / denom if denom else 0.0
    return lhs, rhs, resid
