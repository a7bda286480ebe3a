import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from asailab.eisenstein import (EisensteinError, EisensteinPole, _lattice_float,
                                _m0_bracket, _oscillating, diagonal_mellin_check,
                                eisenstein_continued, eisenstein_lattice_sum,
                                kronecker_limit_check, siegel_unit)
from asailab.precision import mp_context
from oracles import (check_hyperu_ladder, classical_eisenstein_q_series,
                     lattice_by_complex_power, lattice_by_rows,
                     oscillating_by_divisor_pairs, shell_ordered_lattice_sum)


def test_lattice_cutoff_self_convergence():
    # spec point (k=4, alpha=1/5, tau=i, s=0): cutoffs 200 and 400 agree to
    # 1e-8 relative (the bound is tight by design)
    a2 = eisenstein_lattice_sum(4, Fraction(1, 5), 1j, 0, 200)
    a4 = eisenstein_lattice_sum(4, Fraction(1, 5), 1j, 0, 400)
    assert abs(a2 - a4) / abs(a4) < 1e-8


def test_lattice_alpha_negation_symmetry():
    # exact symmetry of the defining sum; float roundoff only
    for k in (3, 4):
        plus = eisenstein_lattice_sum(k, Fraction(1, 5), 0.3 + 1.1j, 1, 80)
        minus = eisenstein_lattice_sum(k, Fraction(-1, 5), 0.3 + 1.1j, 1, 80)
        assert abs(minus - (-1) ** k * plus) < 1e-9 * (1 + abs(plus))


def test_lattice_reordered_summation_oracle():
    # (k=0, s=2, alpha=1/4, tau=i): independent shell-ordered summation
    sq = eisenstein_lattice_sum(0, Fraction(1, 4), 1j, 2, 120)
    sh = shell_ordered_lattice_sum(0, Fraction(1, 4), 1j, 2, 120)
    assert abs(sq - sh) < 1e-9


@pytest.mark.parametrize("cutoff", [7, 16, 17, 80])
@pytest.mark.parametrize("k,s", [(k, s) for k in (0, 1, 5)
                                 for s in (0, 1, 2.5, complex(1.5, 0.7))
                                 if (k, s) != (0, 0)]   # Gamma(s + k) has its pole there
                         + [(-1, 2.5), (160, 2.5)])
def test_blocked_lattice_is_bit_identical_to_rows(k, s, cutoff):
    # blocks of rows sum each row as the row loop does, and add the rows in
    # the same order, so the doubles agree exactly
    args = (k, 2 / 7, -0.31 + 0.45j, complex(s), cutoff)
    assert _lattice_float(*args) == lattice_by_rows(*args)


@pytest.mark.parametrize("cutoff", [7, 16, 17, 80, 350])
@pytest.mark.parametrize("k,s", [(k, s) for k in (-1, 0, 1, 5, 7, 40, 120, 160)
                                 for s in (0, 1, 2.5, complex(1.5, 0.7))
                                 if k + 2 * complex(s).real > 2])
def test_real_arithmetic_lattice_matches_complex_powers(k, s, cutoff):
    # the real power, the phase and (conj w / |w|^2)^k against numpy's complex
    # powers, to roundoff, and finite wherever those are (at k = 160, s = 5/2
    # the value is about 9e247)
    args = (k, 2 / 7, -0.31 + 0.45j, complex(s), cutoff)
    want = lattice_by_complex_power(*args)
    got = eisenstein_lattice_sum(k, Fraction(2, 7), args[2], s, cutoff)
    assert cmath.isfinite(want)
    assert abs(got - want) <= 1e-13 * max(1, abs(want))


def test_lattice_domain_errors():
    with pytest.raises(EisensteinError):
        eisenstein_lattice_sum(0, Fraction(1, 4), 1j, 1, 50)  # k + 2s = 2
    with pytest.raises(EisensteinError):
        eisenstein_lattice_sum(2, Fraction(1, 4), 1j - 2j, 0, 50)  # Im tau <= 0
    with pytest.raises(EisensteinError):
        eisenstein_lattice_sum(2, Fraction(0), 1j, 1, 50)  # alpha = 0


def test_dual_method_agreement():
    # (k=2, s=1, alpha=1/5, tau=2i) within 1e-8: k+2s = 4 truncates like
    # R^{-2}, so this point needs the largest cutoff
    lat = eisenstein_lattice_sum(2, Fraction(1, 5), 2j, 1, 1500)
    con = complex(eisenstein_continued(2, Fraction(1, 5), 2j, 1))
    assert abs(lat - con) < 1e-8
    for k, s, alpha, tau in [(6, 0, Fraction(1, 5), 1j),
                             (3, 2, Fraction(1, 4), 0.3 + 1.2j),
                             (5, 1, Fraction(2, 7), -0.25 + 0.8j),
                             (4, Fraction(3, 2), Fraction(1, 5), 1j),
                             (3, 1.25, Fraction(1, 3), 0.1 + 1.4j)]:
        lat = eisenstein_lattice_sum(k, alpha, tau, float(s), 350)
        con = complex(eisenstein_continued(k, alpha, tau, float(s)))
        assert abs(lat - con) < 1e-8, (k, s)


def test_holomorphic_specialisation_matches_q_series():
    # (k=3, s=0, alpha=1/7, tau=i): classical holomorphic Eisenstein series
    for k, alpha, tau in ((3, Fraction(1, 7), 1j), (4, Fraction(1, 5), 0.2 + 1.0j)):
        got = complex(eisenstein_continued(k, alpha, tau, 0))
        want = classical_eisenstein_q_series(k, alpha, tau)
        assert abs(got - want) < 1e-8
        lat = eisenstein_lattice_sum(k, alpha, tau, 0, 400)
        assert abs(got - lat) < 5e-7  # slower truncation at k = 3


def test_gamma1_invariance():
    tau = 0.23 + 0.9j
    alpha = Fraction(1, 5)
    for (a, b, c, d), (k, s) in [((1, 1, 0, 1), (2, 0)),
                                 ((1, 0, 5, 1), (2, 0)),
                                 ((6, 1, 5, 1), (1, 1))]:
        assert a * d - b * c == 1 and c % 5 == 0 and d % 5 == 1
        gt = (a * tau + b) / (c * tau + d)
        lhs = complex(eisenstein_continued(k, alpha, gt, s))
        rhs = (c * tau + d) ** k * complex(eisenstein_continued(k, alpha, tau, s))
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("s", [0.5, 1.5, 2.5, complex(1.5, 0.7)])
def test_gamma1_invariance_non_integer_s(s):
    # Im tau = 0.25 and Im(gamma tau) = 0.16: the ladder runs at two z1
    tau, (a, b, c, d) = -0.19 + 0.25j, (6, 1, 5, 1)
    gt = (a * tau + b) / (c * tau + d)
    assert gt.imag >= 0.1
    for k in range(4):
        lhs = complex(eisenstein_continued(k, Fraction(1, 5), gt, s))
        rhs = (c * tau + d) ** k * complex(eisenstein_continued(k, Fraction(1, 5), tau, s))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs), (k, s)


def test_gamma1_7_invariance_at_small_im():
    # the benchmark's c = N = 7 geometry: Re tau near -1/7, so that
    # Im(gamma tau) = 0.062 and the continuation takes about 160 Fourier levels
    tau = complex(round((-1 + 0.04) / 7, 6), 0.33)
    for k, s in [(k, 0) for k in range(8)] + [(2, Fraction(3, 2))]:
        alpha = Fraction(1 + k % 2, 7)
        a, b, c, d = (8, 1, 7, 1) if k % 2 == 0 else (-6, -1, 7, 1)
        assert a * d - b * c == 1 and c % 7 == 0 and a % 7 == d % 7 == 1
        gt = (a * tau + b) / (c * tau + d)
        assert 0.06 < gt.imag < 0.063
        lhs = complex(eisenstein_continued(k, alpha, gt, s))
        rhs = (c * tau + d) ** k * complex(eisenstein_continued(k, alpha, tau, s))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs), (k, s)


def _convolution_grid():
    # k = 0..7 at each prec; s, alpha (denominators 2..12) and tau cycle apart
    s_values = [0, Fraction(3, 2), 0.3, Fraction(-1, 2), complex(1.5, 0.7), 2, -1,
                Fraction(5, 2), 0.5]
    taus = [0.3 + 1j, -0.41 + 0.06j, -0.2 + 0.3j, 0.17 + 0.11j]
    cases = []
    for i, (prec, k) in enumerate((p, k) for p in (64, 120, 200) for k in range(8)):
        den = 2 + i % 11
        num = max(n for n in range(1, den // 2 + 1) if math.gcd(n, den) == 1)
        cases.append((k, s_values[i % len(s_values)], Fraction(num, den),
                      taus[i % len(taus)], prec))
    # alpha = 1/2 at odd k: c_r = e(r/2) - e(-r/2) = 0, so every mode vanishes
    return cases + [(1, Fraction(3, 2), Fraction(1, 2), -0.3 + 0.06j, 64),
                    (5, 0.3, Fraction(1, 2), -0.1 + 0.2j, 200)]


@pytest.mark.parametrize("k,s,alpha,tau,prec", _convolution_grid())
def test_oscillating_matches_divisor_pairs(k, s, alpha, tau, prec):
    # run both where eisenstein_continued runs _oscillating
    with mp_context(prec), mpmath.extraprec(4 * (10 + k)):
        t = mpmath.mpc(complex(tau))
        s_m = mpmath.mpc(complex(s)) if complex(s).imag else mpmath.mpf(complex(s).real)
        a_m = mpmath.mpf(alpha.numerator) / alpha.denominator
        got = _oscillating(k, alpha, t, s_m, prec)
        want = oscillating_by_divisor_pairs(k, a_m, t.real, t.imag, s_m, prec)
        assert abs(got - want) <= mpmath.ldexp(max(1, abs(want)), 8 - prec)
        if alpha == Fraction(1, 2) and k % 2:
            assert abs(got) <= mpmath.ldexp(1, 8 - prec)


def test_conjugation_symmetry():
    # E_alpha^(k)(-conj(tau), s) = (-1)^k conj(E_alpha^(k)(tau, s)) for real s
    for k, s in ((2, 1), (3, 1), (0, 2)):
        tau = 0.37 + 1.21j
        left = complex(eisenstein_continued(k, Fraction(1, 5), -tau.conjugate(), s))
        right = (-1) ** k * complex(eisenstein_continued(k, Fraction(1, 5), tau, s)).conjugate()
        assert abs(left - right) < 1e-10


def test_pole_reporting():
    with pytest.raises(EisensteinPole):
        eisenstein_continued(0, Fraction(1, 5), 1j, 1)
    # k != 0 has no pole at s = 1
    val = eisenstein_continued(2, Fraction(1, 5), 1j, 1)
    assert mpmath.isfinite(val)


def test_cancelled_half_integer_points():
    # s = (1-k)/2 for even k: individual pieces have poles that cancel
    tau = 0.2 + 1.3j
    for k in (0, 2):
        s0 = (1 - k) / 2
        v0 = complex(eisenstein_continued(k, Fraction(1, 5), tau, s0, prec=80))
        vm = complex(eisenstein_continued(k, Fraction(1, 5), tau, s0 - 1e-7, prec=80))
        vp = complex(eisenstein_continued(k, Fraction(1, 5), tau, s0 + 1e-7, prec=80))
        assert abs((vm + vp) / 2 - v0) < 1e-10


def test_siegel_unit_properties():
    # |g(tau + 1)| = |g(tau)|
    tau = 0.3 + 0.9j
    g1 = siegel_unit(Fraction(1, 5), tau)
    g2 = siegel_unit(Fraction(1, 5), tau + 1)
    assert abs(abs(g1) - abs(g2)) < 1e-10
    # alpha = 1/2, tau = i: real positive, stable between 50 and 100 terms
    a = siegel_unit(Fraction(1, 2), 1j, terms=50)
    b = siegel_unit(Fraction(1, 2), 1j, terms=100)
    assert abs(a - b) < 1e-12
    assert abs(mpmath.im(b)) < 1e-20 and mpmath.re(b) > 0
    with pytest.raises(EisensteinError):
        siegel_unit(Fraction(1, 2), 1j, terms=0)


def test_siegel_truncation_decays_geometrically():
    # |q| = e^{-2 pi 0.25} = 0.2: errors shrink by ~|q|^4 per 4 extra terms
    tau = 0.1 + 0.25j
    vals = [complex(siegel_unit(Fraction(1, 5), tau, terms=t, prec=120))
            for t in (4, 8, 12, 40)]
    errs = [abs(v - vals[-1]) for v in vals[:-1]]
    assert errs[1] < errs[0] * 0.05 and errs[2] < errs[1] * 0.05


KRONECKER_GRID = [(Fraction(1, 4), 1j), (Fraction(1, 4), 2j), (Fraction(1, 4), (1 + 3j) / 2),
                  (Fraction(1, 5), 1j), (Fraction(1, 5), 2j), (Fraction(1, 5), (1 + 3j) / 2),
                  (Fraction(1, 7), 1j), (Fraction(1, 7), 2j), (Fraction(1, 7), (1 + 3j) / 2)]


@pytest.mark.parametrize("alpha,tau", KRONECKER_GRID)
def test_kronecker_limit_identity(alpha, tau):
    resid = float(kronecker_limit_check(alpha, tau))
    assert resid < 1e-8
    if alpha == Fraction(1, 7) and tau == 2j:
        assert resid < 1e-10  # faster q-decay


def test_mellin_check(bc_form_4000):
    lhs, rhs, resid = diagonal_mellin_check(bc_form_4000, 14, y_cutoff=40.0, n_max=600)
    assert resid < 1e-4
    assert lhs != 0
    lhs2, _, _ = diagonal_mellin_check(bc_form_4000, 14, y_cutoff=20.0, n_max=600)
    assert abs(lhs - lhs2) < 1e-6


def test_mellin_zero_form(field5):
    class ZeroForm:
        field = field5

        @staticmethod
        def alpha(n):
            return Fraction(0)

    assert diagonal_mellin_check(ZeroForm(), 14) == (0.0, 0.0, 0.0)


def test_mellin_normalisation_documented(bc_form_500):
    # rhs equals Gamma(s') (sqrt(5)/(4 pi))^{s'} * sum alpha(n) n^{-s'}
    sprime = 13.0
    _, rhs, _ = diagonal_mellin_check(bc_form_500, sprime, n_max=200)
    direct = math.gamma(sprime) * (math.sqrt(5) / (4 * math.pi)) ** sprime \
        * sum(float(bc_form_500.alpha(n)) * n ** -sprime for n in range(1, 201))
    assert abs(rhs - direct) < 1e-12 * abs(direct)


def test_lattice_matches_high_precision_continuation():
    # the double-precision lattice sum against an 80-bit continuation
    lat = eisenstein_lattice_sum(5, Fraction(1, 5), 1j, 0, 60)
    con = eisenstein_continued(5, Fraction(1, 5), 1j, 0, prec=80)
    assert abs(lat - complex(con)) < 1e-9


def test_m0_bracket_memo_is_keyed_on_precision():
    # the tau-free m = 0 bracket is memoised; a 64-bit entry must not serve a
    # 200-bit call, and distinct alpha or s must not share an entry
    args = (3, Fraction(1, 5), 0.2 + 0.7j, Fraction(5, 2))
    eisenstein_continued(*args, prec=64)
    after_64 = eisenstein_continued(*args, prec=200)
    _m0_bracket.cache_clear()
    assert eisenstein_continued(*args, prec=200) == after_64
    with mpmath.workprec(120):
        s, t = mpmath.mpf(2.5), mpmath.mpf(1.5)
        base = _m0_bracket(3, Fraction(1, 5), s, 120)
        assert _m0_bracket(3, Fraction(2, 5), s, 120) != base
        assert _m0_bracket(3, Fraction(1, 5), t, 120) != base
        assert _m0_bracket(3, Fraction(1, 5), s, 120) == base

@pytest.mark.parametrize("k,s", [(1, 0), (3, -1), (2, -2), (4, -1),
                                 (0, -2), (2, 0), (4, 0),
                                 (0, -0.5), (2, -1.5), (4, -2.5)])
def test_special_point_branches_are_continuous(k, s):
    # every removable singularity of the expansion (Gamma poles against
    # Bernoulli zeros, the odd-k psi branch at k+2s = 1, the tower limits,
    # and the tower's Gamma(2s+k-1) pole against a trivial zero of zeta)
    # must agree with the midpoint of a small neighbourhood
    tau = 0.21 + 1.07j
    v0 = complex(eisenstein_continued(k, Fraction(1, 5), tau, s, prec=90))
    vm = complex(eisenstein_continued(k, Fraction(1, 5), tau, s - 1e-7, prec=90))
    vp = complex(eisenstein_continued(k, Fraction(1, 5), tau, s + 1e-7, prec=90))
    assert abs((vm + vp) / 2 - v0) < 1e-11


def _series_converges(a, b, z, prec):
    with mpmath.workprec(prec):
        try:
            mpmath.hyp2f0(a, 1 + a - b, -1 / mpmath.mpf(z), force_series=True,
                          maxterms=prec)
            return True
        except mpmath.mp.NoConvergence:
            return False


@pytest.mark.parametrize("s,k,y,N,prec", [
    (0.5, 0, 1.9, 3, 64),                     # half-integer s: b an integer
    (2.5, 7, 1.9, 4, 96),
    (0.3, 3, 0.6, 14, 120),                   # non-integer s
    (-1.5, 2, 1.9, 3, 64),                    # negative s
    (complex(1.5, 0.7), 1, 0.6, 14, 120),     # complex s
    (0.3, 2, 1.9, 3, 200),                    # the ladder starts above z_N
    (0.5, 3, 0.6, 0, 120),                    # N = 0
    # production length: n_max of _oscillating at Im tau = 0.2, prec = 64
    (0.5, 2, 0.2, int((64 + 25) * math.log(2) / (2 * math.pi * 0.2)), 64),
    # values spanning about z^-9.5 from n = 1 to N
    (2.5, 7, 0.2, int((64 + 25) * math.log(2) / (2 * math.pi * 0.2)), 64),
    # a < 0: U has real zeros on the ladder
    (-2.5, 1, 0.3, int((64 + 25) * math.log(2) / (2 * math.pi * 0.3)), 64),
])
def test_hyperu_ladder_matches_oracle(s, k, y, N, prec):
    z1 = 4 * math.pi * y
    if N:
        # the series fails at z1, so the U(s, ...) ladder steps; it converges at
        # z_N, except at prec = 200, where the ladder starts above z_N
        assert not _series_converges(s, 2 * s + k, z1, prec + 10)
        assert _series_converges(s, 2 * s + k, N * z1, prec + 10) != (prec == 200)
    check_hyperu_ladder(s, k, y, N, prec)


def test_fourier_cutoff_follows_prec(monkeypatch):
    # the number of Fourier modes comes from the caller's prec, so the
    # environment's precision does not move a prec = 200 value
    args = (4, Fraction(1, 5), 0.1 + 1j, 3)
    monkeypatch.delenv("ASAILAB_PRECISION", raising=False)
    base = eisenstein_continued(*args, prec=200)
    monkeypatch.setenv("ASAILAB_PRECISION", "400")
    moved = eisenstein_continued(*args, prec=200)
    assert abs(moved - base) < mpmath.ldexp(abs(base), -190)


def test_weight_zero_is_real_at_real_s():
    for s in (1.5, 2, 0):
        assert mpmath.im(eisenstein_continued(0, Fraction(1, 5), 0.17 + 0.3j, s)) == 0
    assert mpmath.im(eisenstein_continued(0, Fraction(1, 5), 1j, complex(1.5, 0.7))) != 0
