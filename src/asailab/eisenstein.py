"""Real-analytic Eisenstein series E_alpha^(k)(tau, s), Siegel units, the
Kronecker-limit identity, and the diagonal Mellin/unfolding kernel check.

E_alpha^(k)(tau, s) = (-2 pi i)^{-k} pi^{-s} Gamma(s+k)
                      * sum_{(m,n) in Z^2} y^s / ((m tau + n + alpha)^k
                                                  |m tau + n + alpha|^{2s})

for 0 < alpha < 1 rational, converging for k + 2 Re(s) > 2.  The continuation
is computed from the Fourier expansion: the m = 0 row is a pair of Hurwitz
zetas, the r = 0 tower a Riemann zeta, and the oscillating modes carry
confluent hypergeometric U-factors U(a, 2s+k, 4 pi n Im tau): z^-a times an
integer polynomial in 1/z where the asymptotic series terminates within degree
32, otherwise taken down a Taylor ladder on Kummer's equation from that series
at the first level from the top where it converges.  The m = 0
row is memoised without its factor y^s.  The modes of level n = r m share
their U-factors and q^n, so each level is one divisor sum over r | n of
(2 pi r)^{2s+k-1} times a constant of r mod den(alpha), filled for every level
by one sieve; one Horner sum in q adds the levels.  All of it runs on the
fixed-point integers of `precision`.

Poles only occur for k = 0 (at s = 1); every other apparent singularity of
the pieces cancels and the cancelled limits are evaluated analytically.
"""

import cmath
import functools
import math
from fractions import Fraction

import mpmath

from .lseries import dirichlet_alpha_table
from .precision import Gauss, fixed, from_fixed, mp_context, working_precision


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

def _near_int(x):
    r = round(float(x))
    return r if abs(float(x) - r) < 1e-10 else None


def _classify_s(s):
    """(is_real, exact integer or None, exact half-integer*2 or None)."""
    s_c = complex(s)
    if s_c.imag != 0:
        return False, None, None
    n = _near_int(s_c.real)
    h = _near_int(2 * s_c.real)
    return True, n, h


def eisenstein_continued(k, alpha, tau, s):
    """E_alpha^(k)(tau, s) by the Fourier expansion, valid for all s.

    Agrees with the lattice sum in the convergence region; raises
    EisensteinPole at the k = 0 pole (s = 1).
    """
    k = int(k)
    if k < 0:
        raise EisensteinError("negative weights unsupported; use the alpha -> -alpha symmetry")
    alpha = _check_alpha(alpha)
    _as_tau(tau)
    is_real, s_int, s_half2 = _classify_s(s)
    # genuine pole: k = 0 at s = 1 (the zeta(2s+k-1) pole that nothing cancels)
    if k == 0 and is_real and s_int == 1:
        raise EisensteinPole("E^(0) has its pole at s = 1")
    with mp_context():
        with mpmath.extraprec(4 * (10 + k)):
            tau_m = mpmath.mpc(complex(tau))
            y = tau_m.imag
            if not is_real:
                s_m = mpmath.mpc(complex(s))
            else:
                s_m = mpmath.mpf(complex(s).real if s_int is None else s_int)
            if k % 2 == 0 and s_half2 == 1 - k and s_int is None:
                total = _cancelled_pair(k, mpmath.mpf(alpha.numerator) / alpha.denominator, y)
            else:
                # m = 0 row:  Gamma(s+k) [zeta(k+2s, a) + (-1)^k zeta(k+2s, 1-a)] pi^-s y^s
                total = _m0_bracket(k, alpha, s_m, mpmath.mp.prec) * y ** s_m
                # r = 0 tower (even k): 2 (2pi)^{1-k} pi^-s y^s (2y)^{1-2s-k}
                #                        * Gamma(2s+k-1) zeta(2s+k-1) / Gamma(s)
                if k % 2 == 0:
                    total += _r0_tower(k, y, s_m, is_real, s_int)
            val = total + _oscillating(k, alpha, tau_m, s_m)
        # E^(0) is real at real s; drop the roundoff in its imaginary part
        return +mpmath.re(val) if k == 0 and is_real else +val


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


def _hyperu_values(a, b, z1, N, bits):
    """[U(a, b, n z1) 2^bits for n = 1..N], ints at real a and b and Gauss at
    complex ones, a unit or two off, or a few units in the last place of the
    ladder.  Each column takes one of two routes, chosen from a and b.

    If the asymptotic series z^-a 2F0(a, 1+a-b;; -1/z) (DLMF 13.7.3) terminates
    (a or 1+a-b a nonpositive integer: integer s) within degree 32, U is
    z^-a P(1/z) with integer coefficients (a)_j (1+a-b)_j (-1)^j / j!, so each
    level is one Horner pass and one floor division; U(0, b, z) = 1 is the
    degree-0 case.  Past degree 32 those ints, about bits * degree bits, cost
    more than the ladder.  Every other column is one ladder: U and U' = -a
    U(a+1, b+1, z) (DLMF 13.3.22) are that series at the first level m >= N
    where both converge at working precision, and Taylor steps of -z1 on
    Kummer's equation z u'' + (b - z) u' - a u = 0 carry (U, U') down to z1.
    A step from m z1 converges at ratio 1/m; the other solution, ~e^z, decays
    going down, and so does its share of the rounding error.  The steps run in
    fixed point on one scalar of `precision`, an int at real a and b and a
    Gauss at complex ones: the coefficients scaled by 2^q, q = prec + 20, and
    (U, -z1 U') by 2^p, p = q - mag(U) taken afresh each step; each term
    divides back with floor division, off by at most one unit.
    """
    c = 1 + a - b
    ends = [-int(x) for x in (a, c) if mpmath.isint(x) and x <= 0]
    if ends and min(ends) <= 32:   # U = sum_j t_j z^(-a-j) = z^-e h(z), e >= 0
        deg, a, c, zf = min(ends), int(a), int(c), fixed(z1, bits)
        t = [1]
        for j in range(deg):
            t.append(-t[j] * (a + j) * (c + j) // (j + 1))
        e, lo, up = max(a + deg, 0), max(-a - deg, 0), bits * (a + 1)
        # 2^(bits (deg+lo)) h(n z1) in powers of n; U 2^bits is that 2^(bits (a+1)) / (n zf)^e
        coef = [tj * zf ** (deg - j + lo) << bits * j for j, tj in enumerate(t)] + [0] * lo
        lift, drop, zfe = max(up, 0), max(-up, 0), zf ** e
        vals = []
        for n in range(1, N + 1):
            h = 0
            for cj in coef:
                h = h * n + cj
            den = n ** e * zfe << drop
            cut = max(0, den.bit_length() - 2 * bits)   # keep 2 bits bits of the divisor
            vals.append((h << lift >> cut) // (den >> cut))
        return vals

    if N < 1:
        return []

    def series(a, b, m):   # at z = m z1; raises NoConvergence
        with mpmath.extraprec(10):
            z = m * z1
            return mpmath.hyp2f0(a, 1 + a - b, -1 / z, force_series=True) / z ** a

    m = N   # the ladder starts at the first level from N up where both series converge
    while True:
        try:
            u, du = series(a, b, m), -a * series(a + 1, b + 1, m)
            break
        except mpmath.mp.NoConvergence:
            m += 1
    vals = {m: fixed(u, bits)}
    prec = mpmath.mp.prec
    q = prec + 20
    zf, az, bf = fixed(z1, q), fixed(a * z1, q), fixed(b, q)
    p = q - int(mpmath.mag(u))
    u, v = fixed(u, p), fixed(-z1 * du, p)
    for m in range(m, 1, -1):
        # the terms t_j = c_j h^j of the step h = -z1 from m z1 follow
        # t_{j+2} = ((j+a) z1 t_j + (j+1)(j+b-m z1) t_{j+1}) / (m (j+1)(j+2));
        # U moves by their sum, -z1 U' becomes sum j t_j, and the step ends
        # after two terms below 2^-(prec+4) |U| z1 / max(z1, j), or below 8
        # units: floor division holds a term at a few units, at small z1 above
        # that bound
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
            tiny = size < e1 if j < jz else size * (j + 1) < ez or size < 8
            small = small + 1 if tiny else 0
        u, v = u + tail, dv
        vals[m - 1] = u << bits - p if bits >= p else u >> p - bits
        shift = q - max(abs(u.real), abs(u.imag)).bit_length()   # rescale to the new |U|
        u, v = (u << shift, v << shift) if shift >= 0 else (u >> -shift, v >> -shift)
        p += shift
    return [vals[n] for n in range(1, N + 1)]


def _oscillating(k, alpha, tau, s):
    """The r != 0 Fourier modes, with hypergeometric-U coefficients.

    Level n = r m (r | n) is D[n] (u1_n q^n + (-1)^k poch u2_n conj q^n), q =
    e^{2 pi i tau}, with the divisor convolution D[n] = sum_{r | n} (2 pi r)^w
    c_r, w = 2s+k-1.  c_r = Z_r + (-1)^k conj Z_r, Z_r = e^{2 pi i r alpha}, is
    2 cos(2 pi r alpha) (2i sin at odd k), a function of r num(alpha) mod
    den(alpha); (2 pi)^w moves into the prefactor, which becomes (4 pi y)^s.
    The rest runs on ints scaled by 2^bits, in real and imaginary lanes, with
    guard bits for the smallest U, r^w and |q|: r^w is exact at an integer
    w >= 0, one sieve over r fills D, and each column is a Horner sum in q
    (conj q), which damps each rounding error by |q| per level still to go;
    from_fixed rounds each column once.
    """
    y = mpmath.im(tau)
    poch = mpmath.rf(s, k)
    n_max = int((working_precision() + 25) * mpmath.log(2) / (2 * mpmath.pi * y))
    z1, w, rs, re_s = 4 * mpmath.pi * y, 2 * s + k - 1, range(1, n_max + 1), float(mpmath.re(s))
    # 20 guard bits over the working precision, plus the bits by which the smallest
    # U (z^-Re a at the largest z), r^w and |q| = e^{-2 pi y} (if a level is kept) fall below 1
    bits = mpmath.mp.prec + 20 + math.ceil(max(0, re_s + k) * math.log2(max(1, n_max * z1))
                                           + max(0, 1 - 2 * re_s - k) * math.log2(max(1, n_max))
                                           + min(n_max, 1) * 2 * math.pi * float(y) / math.log(2))
    us1 = _hyperu_values(s, 2 * s + k, z1, n_max, bits)
    us2 = [] if poch == 0 else _hyperu_values(s + k, 2 * s + k, z1, n_max, bits)
    num, den = alpha.numerator, alpha.denominator
    trig = mpmath.sinpi if k % 2 else mpmath.cospi
    cs = [fixed(2 * trig(mpmath.mpf(2 * j) / den), bits) for j in range(den)]
    if mpmath.isint(w):   # r^w 2^bits, exact or floored
        w = int(w)
        pw = [r ** w << bits if w >= 0 else (1 << bits) // r ** -w for r in rs]
    else:
        pw = [fixed(mpmath.mpf(r) ** w, bits) for r in rs]
    dr, di = [0] * n_max, [0] * n_max
    for r, p in zip(rs, pw):
        for lane, t in ((dr, p.real * cs[r * num % den]), (di, p.imag * cs[r * num % den])):
            for n in range(r - 1, n_max, r) if t else ():
                lane[n] += t
    q, cols = fixed(mpmath.expjpi(2 * tau), bits), []
    for us, qr, qi in ((us1, q.real, q.imag), (us2, q.real, -q.imag)):
        hr = hi = 0
        for x, z, u in zip(reversed(dr), reversed(di), reversed(us)):
            ar = hr + (x * u.real - z * u.imag >> 2 * bits)
            ai = hi + (x * u.imag + z * u.real >> 2 * bits)
            hr, hi = (ar * qr - ai * qi) >> bits, (ar * qi + ai * qr) >> bits
        cols.append(from_fixed(Gauss(hr, hi), bits))
    return z1 ** s * (1j if k % 2 else 1) * (cols[0] + (-1) ** k * poch * cols[1])


# -- Siegel units and the Kronecker limit --------------------------------------

def siegel_stop(tau):
    """The first n whose Siegel-product factor siegel_unit leaves out at the
    P-bit working precision: 1 + floor(P ln 2 / (pi Im tau)), |q^n| < 2^-2P."""
    with mp_context():
        y = mpmath.mpf(complex(tau).imag)
        return int(mpmath.mp.prec * mpmath.log(2) / (mpmath.pi * y)) + 1


def siegel_unit(alpha, tau, terms=None):
    """g_{0,alpha}(tau) = q^{1/12} (1 - q_a) prod_{n>=1} (1 - q^n q_a)(1 - q^n/q_a).

    The factors n < min(terms, siegel_stop(tau)), so none with |q^n| < 2^-2P
    at the P-bit working precision: such a factor rounds to 1 + i delta,
    |delta| < 2^(1-2P), and leaves g as it was unless one part of g is over
    2^(P-2) times the other.  `terms` None sets no cap.
    Only |g| is canonical; the q^{1/12} branch is exp(2 pi i tau / 12).
    """
    alpha = _check_alpha(alpha)
    _as_tau(tau)
    if terms is not None and terms < 1:
        raise EisensteinError("need terms >= 1")
    stop = siegel_stop(tau) if terms is None else min(int(terms), siegel_stop(tau))
    with mp_context():
        tau_m = mpmath.mpc(complex(tau))
        q = mpmath.exp(2j * mpmath.pi * tau_m)
        qa = mpmath.expjpi(2 * mpmath.mpf(alpha.numerator) / alpha.denominator)
        g = mpmath.exp(2j * mpmath.pi * tau_m / 12) * (1 - qa)
        qn = mpmath.mpc(1)
        for _ in range(1, stop):
            qn *= q
            g *= (1 - qn * qa) * (1 - qn / qa)
        return +g


def kronecker_limit_check(alpha, tau, terms=None):
    """|E^(0)_alpha(tau, 0) + 2 log |g_{0,alpha}(tau)||; small iff the identity holds."""
    alpha = _check_alpha(alpha)
    with mp_context():
        e0 = eisenstein_continued(0, alpha, tau, 0)
        g = siegel_unit(alpha, tau, terms)
        return abs(e0 + 2 * mpmath.log(abs(g)))   # e0 is real at real s


# -- diagonal Mellin / unfolding kernel -----------------------------------------

def diagonal_mellin_check(form, sprime, y_cutoff=40.0, n_max=600):
    """Mellin transform of the trace-zero modes against the Dirichlet series.

    lhs = integral_0^Y W(y) y^{s'} dy/y, Y = y_cutoff, with W(y) = sum_{n >= 1}
    alpha(n) exp(-c n y), c = 4 pi / sqrt(Delta): the x-average of the
    anti-holomorphic diagonal restriction (trace-zero Fourier modes are indexed
    by -n/sqrt(Delta)); the normalisation c(different^{-1}) = Delta^{-(t+t')/2}
    makes the coefficients exactly alpha(n).  rhs = Gamma(s') c^{-s'} sum
    alpha(n) n^{-s'}.  Returns (lhs, rhs, relative residual), lhs by float64
    quadrature on 48 log-spaced Gauss-Legendre panels of 24 nodes, adequate for
    the 1e-4 scale checks this supports.  As Gamma(s', x) <= x^{s'} e^{-x} /
    (x - s' + 1) at x >= s', the tail past Y is at most Y^{s'} sum |alpha(n)|
    e^{-x_n} / (x_n - s' + 1), x_n = c n Y, if x_1 >= s'; EisensteinError is
    raised when x_1 < s' or this bound passes 1e-4 |rhs|.
    """
    import numpy as np
    sprime = float(sprime)
    if sprime <= 1:
        raise EisensteinError("need Re(s') > 1 for the kernel integral")
    disc = form.field.disc
    c = 4 * math.pi / math.sqrt(disc)
    table = dirichlet_alpha_table(form, n_max)[1:]
    try:
        alphas = np.array([x / den if not y else float(form.coefficient_field.element(
            Fraction(x, den), Fraction(y, den))) for x, y, den in table])
    except OverflowError:   # from x / den alone: the mpf route gives inf
        raise EisensteinError("an alpha(n) is past the double range") from None
    ns = np.arange(1, n_max + 1, dtype=float)
    if not alphas.any():
        return 0.0, 0.0, 0.0
    dirichlet = float(np.sum(alphas * ns ** (-sprime)))
    rhs = math.gamma(sprime) * (math.sqrt(disc) / (4 * math.pi)) ** sprime * dirichlet
    x = c * y_cutoff * ns
    tail = math.inf if x[0] < sprime else float(np.sum(np.abs(alphas) * np.exp(
        sprime * math.log(y_cutoff) - x - np.log(x - sprime + 1))))
    if not tail <= 1e-4 * abs(rhs):
        raise EisensteinError(f"y_cutoff = {y_cutoff:g} leaves out up to {tail:.3g} of {rhs:.6g}")
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
    denom = max(abs(lhs), abs(rhs))
    resid = abs(lhs - rhs) / denom if denom else 0.0
    return lhs, rhs, resid
