import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from asailab import arith, lseries
from asailab.lseries import (AsaiLSeries, LSeriesError, SymbolicConstant,
                             dirichlet_alpha_table, euler_product_L,
                             euler_product_coefficients, imprimitive_L,
                             imprimitive_coefficients, regulator_constant,
                             unfolding_constant)
from asailab.arith import factorise, is_squarefree, primes_up_to, smallest_prime_factors
from asailab.asairep import asai_charpoly
from asailab.characters import DirichletCharacter, unit_group_structure
from asailab.eigenform import (Weight, HilbertEigenform, base_change,
                               discriminant_form_ap, synthetic_form)
from asailab.coeffs import CoefficientField
from asailab.precision import GUARD_BITS, exact_fixed, inverse_power, mp_context
from asailab.quadfield import RealQuadraticField
from oracles import (euler_product_L_by_horner,
                     euler_product_L_by_series, imprimitive_L_by_terms, local_value_by_fractions,
                     power_series_quotient, ramified_local_factor_series,
                     sym2_times_twisted_zeta)

SQUAREFREE_BELOW_30 = [d for d in range(2, 30) if is_squarefree(d)]


@lru_cache(maxsize=None)
def _delta_over(d):
    """The base change of Delta to Q(sqrt d), data to norm 1000."""
    return base_change(discriminant_form_ap(1000), 12, None, RealQuadraticField(d),
                       bound=1000)


def test_alpha_table_matches_direct():
    # reference: lambda_of on the HNF factorisation of (n), an independent
    # route; d = 5 has 2 inert, d = 2 has 2 ramified, d = 17 has 2 split, and
    # the twisted weights have t + t' = 1 and -2
    n_max = 600
    for d in (5, 2, 17):
        field = RealQuadraticField(d)
        base = base_change(discriminant_form_ap(n_max), 12, None, field, bound=n_max)
        lams = [None] + [base.lambda_of(field.ideal(n)) for n in range(1, n_max + 1)]
        for weight in (base.weight, Weight(14, 12, 0, 1), Weight(10, 10, -1, -1)):
            form = HilbertEigenform(field, weight, base.level, base.coefficient_field,
                                    base.eigenvalues)
            tsum = weight.t1 + weight.t2
            table = dirichlet_alpha_table(form, n_max)
            assert len(table) == n_max + 1
            for n in range(1, n_max + 1):
                want = Fraction(n) ** -tsum * lams[n]   # canonical coordinates
                assert table[n] == (want.x, want.y, want.den), (d, weight, n)


def test_imprimitive_self_convergence(bc_form_4000):
    series = AsaiLSeries(bc_form_4000)
    v2, _ = imprimitive_L(series, 14, n_cutoff=2000)
    v4, rep = imprimitive_L(series, 14, n_cutoff=4000)
    assert abs(v2 - v4) / abs(v4) < 1e-8
    assert rep["n_cutoff"] == 4000
    with pytest.raises(LSeriesError):
        imprimitive_L(series, 3, n_cutoff=100)  # below the convergence abscissa


def test_dirichlet_euler_agreement(bc_form_4000):
    series = AsaiLSeries(bc_form_4000)
    v_dir, _ = imprimitive_L(series, 14, n_cutoff=4000)
    v_eul, _ = euler_product_L(series, 14, ell_cutoff=500)
    assert abs(v_dir - v_eul) / abs(v_dir) < 1e-6
    # complex argument path
    v_c, _ = imprimitive_L(series, 14 + 1j, n_cutoff=800)
    assert mpmath.im(v_c) != 0


def test_coefficient_level_identity(bc_form_4000):
    series = AsaiLSeries(bc_form_4000)
    ec = euler_product_coefficients(series, 120)
    ic = imprimitive_coefficients(series, 120)
    assert all(ec[n] == ic[n] for n in range(1, 121))


def test_euler_coefficients_read_no_higher_prime_powers(bc_form_500):
    # the Euler side reads lambda(P) and eps(P) only: corrupting every stored
    # lambda(P^e) with e >= 2 must leave its coefficients unchanged, which is
    # what keeps acceptance criterion 7's two sides independent
    form = bc_form_500
    primes = {p.hnf() for ell in primes_up_to(500) for p in form.field.primes_above(ell)}
    eig = {key: val if key in primes or key == (1, 0, 1) else val + 1
           for key, val in form.eigenvalues.items()}
    bad = HilbertEigenform(form.field, form.weight, form.level,
                           form.coefficient_field, eig)
    want = euler_product_coefficients(AsaiLSeries(form), 200)
    got = euler_product_coefficients(AsaiLSeries(bad), 200)
    assert [repr(x) for x in got] == [repr(x) for x in want]
    assert dirichlet_alpha_table(bad, 200)[4] != dirichlet_alpha_table(form, 200)[4]


def test_ramified_local_factor_against_recursion(bc_form_500, field5):
    # deconvolving the zeta factor from the ramified local factor of L^imp
    # must leave exactly the alpha(5^j) series
    series = AsaiLSeries(bc_form_500)
    ec = euler_product_coefficients(series, 125)
    kk = series.shift_weight
    c = Fraction(5 ** (kk + 2))  # trivial nebentype at the ramified prime
    for n, j in ((5, 1), (25, 2), (125, 3)):
        deconv = ec[n] - c * (ec[n // 25] if j >= 2 else 0)
        assert deconv == bc_form_500.lambda_rational(n)  # alpha(n), t = t' = 0


def test_euler_product_bad_factor_handling(bc_form_500):
    # no bad factor is known here: local_factor refuses a prime dividing the
    # level, with one message for both Euler-product routes, and a level-1
    # report names no bad prime
    _, report = euler_product_L(AsaiLSeries(bc_form_500), 14, ell_cutoff=100)
    assert report == {"ell_cutoff": 100, "primitive": False, "bad_primes": []}
    level5 = AsaiLSeries(_level5_form())
    message = r"^missing bad factor C_l at l = 5$"
    with pytest.raises(LSeriesError, match=message):
        level5.local_factor(5)
    with pytest.raises(LSeriesError, match=message):
        euler_product_L(level5, 14, ell_cutoff=100)
    with pytest.raises(LSeriesError, match=message):
        euler_product_coefficients(level5, 100)


def test_constant_report_evaluates_the_constant_once(monkeypatch):
    c = unfolding_constant(0, 0, 0, 5, 5)
    want, calls = c.numeric(), []
    numeric = SymbolicConstant.numeric
    monkeypatch.setattr(SymbolicConstant, "numeric",
                        lambda self: calls.append(self) or numeric(self))
    assert c.to_json()["numeric"] == [float(want.real), float(want.imag)]
    assert calls == [c]


def test_unfolding_constant_fixture():
    # (k,k',j) = (0,0,0), N = 5, Delta = 5: sqrt(5)/(4 pi)
    c = unfolding_constant(0, 0, 0, 5, 5)
    assert c.rational == Fraction(1, 4) and c.pi_exp == -1 and c.sqrt_disc_exp == 1
    num = c.numeric()
    assert abs(num - mpmath.sqrt(5) / (4 * mpmath.pi)) < 1e-15
    # k = k' kills the (-i)^{k-k'} factor; j = k' kills (k'-j)!
    c2 = unfolding_constant(2, 2, 2, 1, 5)
    assert c2.i_exp == 0
    with pytest.raises(LSeriesError):
        unfolding_constant(0, 2, 0, 1, 5)  # needs k' <= k


def test_regulator_constant_fixtures():
    assert abs(regulator_constant(0, 0, 0, 5).numeric() - mpmath.sqrt(5)) < 1e-15
    # (2,2,1, Delta=8): (-1)^{k'-j} (2 pi i)^2 * 8 * (2!2!/1!1!) = +128 pi^2
    # (the sign (-1)^{k'-j} = -1 and i^2 = -1 cancel)
    val = regulator_constant(2, 2, 1, 8).numeric()
    assert abs(val - 128 * mpmath.pi ** 2) < 1e-10
    # j = k = k': factorial ratio (k!)^2 = 36, times the folded sqrt(5)^4 = 25
    c = regulator_constant(3, 3, 3, 5)
    assert abs(c.rational) == 36 * 25 and c.sqrt_disc_exp == 0
    with pytest.raises(LSeriesError):
        regulator_constant(2, 2, 3, 8)


def _elementary_ratio(k, kprime, j, n_level):
    """(-1)^{j+1} N^{k+k'-2j} binom(k,j) k'! (2 pi i)^{k+1} (2 i)^{k+1},
    the measure/Clebsch-Gordan bookkeeping between the two constants."""
    import math
    rational = Fraction((-1) ** (j + 1) * n_level ** (k + kprime - 2 * j)
                        * math.comb(k, j) * math.factorial(kprime) * 2 ** (2 * k + 2))
    rational *= (-1) ** (k + 1)  # i^{2k+2}
    return SymbolicConstant.normalised(rational, k + 1, 0, 1)


@pytest.mark.parametrize("k,kprime,j,n_level,disc",
                         [(0, 0, 0, 5, 5), (2, 2, 0, 3, 8), (2, 2, 1, 1, 5),
                          (4, 2, 1, 7, 13), (3, 3, 2, 2, 12), (5, 1, 0, 4, 8),
                          (6, 4, 3, 1, 5)])
def test_regulator_equals_unfolding_times_elementary(k, kprime, j, n_level, disc):
    unf = unfolding_constant(k, kprime, j, n_level, disc)
    reg = regulator_constant(k, kprime, j, disc)
    ratio = _elementary_ratio(k, kprime, j, n_level)
    prod = SymbolicConstant.normalised(unf.rational * ratio.rational, unf.pi_exp + ratio.pi_exp,
                                       unf.sqrt_disc_exp + ratio.sqrt_disc_exp, disc)
    assert prod.rational == reg.rational
    assert prod.pi_exp == reg.pi_exp
    assert prod.i_exp == reg.i_exp
    assert prod.sqrt_disc_exp == reg.sqrt_disc_exp


def test_zero_form_series(field5):
    class ZeroSeries:
        pass
    # a form whose alpha vanishes for n >= 2 sums to the single n = 1 term
    cf = CoefficientField(None)
    form = HilbertEigenform(field5, Weight(2, 2, 0, 0), field5.maximal_order(), cf, {})
    # lambda data is missing, so the table build fails loudly
    with pytest.raises(Exception):
        dirichlet_alpha_table(form, 10)


@pytest.mark.parametrize("n_max", [0, -5])
def test_alpha_table_rejects_nonpositive_size(bc_form_500, n_max):
    with pytest.raises(LSeriesError):
        dirichlet_alpha_table(bc_form_500, n_max)


def test_symbolic_constant_normalisation():
    c = SymbolicConstant.normalised(Fraction(3), 0, 3, 5)
    assert c.rational == 15 and c.sqrt_disc_exp == 1 and c.i_exp == 0
    d = SymbolicConstant.normalised(Fraction(1), 1, -3, 5)
    assert d.rational == Fraction(1, 5) and d.sqrt_disc_exp == -1 and d.pi_exp == 1


@pytest.mark.parametrize("k,kprime", [(3, 2), (2, 1), (5, 0)])
def test_constants_refuse_odd_weight_difference(k, kprime):
    # both formulas carry a factor i there, which the constants do not hold:
    # (k, k', j, D) = (3, 2, 1, 8) gives 384 pi^3 i and -i/(4 pi), not real values
    for c in (lambda: unfolding_constant(k, kprime, 0, 1, 8),
              lambda: regulator_constant(k, kprime, 0, 8),
              lambda: regulator_constant(kprime, k, 0, 8)):
        with pytest.raises(LSeriesError, match="need k = k' mod 2"):
            c()

def test_euler_product_all_lambda_zero(field5):
    # all lambda = 0 at stored good primes: each split local factor degenerates
    # to 1 - T2 X^2 + l^4 S^2 X^4 with T2 = -l^{2(w-1)}... direct expansion
    cf = CoefficientField(None)
    w = Weight(2, 2, 0, 0)
    eig = {}
    for ell in (11, 19):
        for pr in field5.primes_above(ell):
            eig[pr.hnf()] = cf.element(0)
            eig[(pr * pr).hnf()] = cf.element(-Fraction(pr.norm() ** (w.w - 1)))
    form = HilbertEigenform(field5, w, field5.maximal_order(), cf, eig)
    for ell in (11, 19):
        pl = asai_charpoly(form, ell)
        # T = 0, T2 = (0 - l)(0 - l) = l^2, S = 1:
        # [1, 0, -(l^2 + l^2), 0, l^4]
        assert pl.coeffs == [1, 0, -2 * ell ** 2, 0, ell ** 4]


def test_imprimitive_zero_function():
    # the zero function has L = 0; exercised through a degenerate stub since
    # eigenforms normalise lambda(1) = 1
    class ZeroSeries:
        class form:
            class weight:
                k = kprime = t1 = t2 = 0
            coefficient_field = CoefficientField(None)
        rational_level = 1
        shift_weight = 0

        @staticmethod
        def alpha_table(n):
            return [None] + [(0, 0, 1)] * n

        @staticmethod
        def zeta_argument(s):
            return 2 * s - 2

    val, _ = imprimitive_L(ZeroSeries(), 14, n_cutoff=50)
    assert val == 0


def _mp(c, e):
    """An alpha table's triple c = (x, y, den), (x + y sqrt(e)) / den, at the
    current mpmath precision."""
    x, y, den = c
    return (mpmath.mpf(x) + mpmath.sqrt(e or 0) * y) / den


def _reference_L(series, s, n_cutoff):
    """imprimitive_L summed term by term at 400 bits, chi the trivial character
    mod N, its values from exp(2 pi i e/n)."""
    level = series.rational_level
    chi = DirichletCharacter(level, [0] * len(unit_group_structure(level)))
    with mpmath.workprec(400):
        table = series.alpha_table(n_cutoff)
        u = series.zeta_argument(s)
        e = series.form.coefficient_field.e
        dirichlet = mpmath.fsum(_mp(table[n], e) * mpmath.power(n, -s)
                                for n in range(1, n_cutoff + 1) if table[n][:2] != (0, 0))
        lch = mpmath.fsum(mpmath.expjpi(2 * mpmath.mpf(v.e) / v.n) * mpmath.power(n, -u)
                          for n in range(1, n_cutoff + 1) if (v := chi(n)) is not None)
        return dirichlet * lch


def test_imprimitive_L_converts_at_the_callers_precision(precision):
    # at ASAILAB_PRECISION=200 every coefficient and character value is
    # converted at 200 bits, so the value meets a 400-bit sum far below the
    # 80-bit level
    form = base_change(discriminant_form_ap(600), 12, None, RealQuadraticField(5), bound=600)
    series = AsaiLSeries(form)
    precision(200)
    got, _ = imprimitive_L(series, 14, n_cutoff=600)
    want = _reference_L(series, 14, 600)
    assert abs(got - want) / abs(want) < mpmath.mpf("1e-55")


@pytest.mark.parametrize("s", [14, 13.7, 14 + 1j])
@pytest.mark.parametrize("n_cutoff", [1, 2, 97, 600, 4000])
def test_dirichlet_sums_match_the_per_term_oracle(bc_form_4000, s, n_cutoff, precision):
    # powers along smallest prime factors and one fdot give the doubles of
    # the per-term sum at working precision, and agree far below it at 200 bits
    series = AsaiLSeries(bc_form_4000)
    got, _ = imprimitive_L(series, s, n_cutoff=n_cutoff)
    assert complex(got) == complex(imprimitive_L_by_terms(series, s, n_cutoff))
    precision(200)
    got, _ = imprimitive_L(series, s, n_cutoff=n_cutoff)
    want = imprimitive_L_by_terms(series, s, n_cutoff, prec=200)
    assert abs(got - want) <= abs(want) * mpmath.ldexp(1, -190)


class _ZetaOnly(AsaiLSeries):
    """alpha(1) = 1 and alpha(n) = 0 for n > 1: imprimitive_L is then the
    chi-zeta sum alone."""

    def alpha_table(self, n_max):
        return [None, (1, 0, 1)] + [(0, 0, 1)] * (n_max - 1)


def _level5_form():
    """The eigenvalues of the level-1 base change over Q(sqrt 5) put at level
    (5): only the sums are under test, not the arithmetic of the form."""
    field = RealQuadraticField(5)
    base = base_change(discriminant_form_ap(600), 12, None, field, bound=600)
    return HilbertEigenform(field, base.weight, field.ideal(5), base.coefficient_field,
                            base.eigenvalues)


def _irrational_form():
    """The level-1 base change over Q(sqrt 5) with every stored eigenvalue
    but lambda(1) times (1 + 3 sqrt 2)/6, so that alpha(n) has y != 0 and
    den != 1; again only the sums are under test."""
    base = base_change(discriminant_form_ap(600), 12, None, RealQuadraticField(5), bound=600)
    cf = CoefficientField(2)
    scale = cf.element(Fraction(1, 6), Fraction(1, 2))
    eig = {key: val if key == (1, 0, 1) else val * scale
           for key, val in base.eigenvalues.items()}
    return HilbertEigenform(base.field, base.weight, base.level, cf, eig)


def _route_series(case):
    if case == "irrational":
        return AsaiLSeries(_irrational_form())
    if case == "twisted":  # t + t' = 1: alpha(n) = lambda(n) / n
        base = _level5_form()
        return AsaiLSeries(HilbertEigenform(base.field, Weight(14, 12, 0, 1),
                                            base.field.maximal_order(),
                                            base.coefficient_field, base.eigenvalues))
    return _ZetaOnly(_level5_form())   # "zeta only": the trivial chi mod 5


@pytest.mark.parametrize("case", ["irrational", "twisted", "zeta only"])
@pytest.mark.parametrize("n_cutoff", [1, 2, 600])
def test_dirichlet_sums_off_the_workload_path(case, n_cutoff, precision):
    # inputs the benchmark never reaches: sqrt(e) and den != 1 coefficients,
    # Fraction coefficients, a chi of modulus 5, s far up the critical strip
    # and s just right of the abscissa; doubles as the per-term sum at working
    # precision, and within 2^-190 of it at 200 bits
    series = _route_series(case)
    kk = series.shift_weight
    for s in (14 + 40j, kk / 2 + 2.01):
        precision(64)
        got, _ = imprimitive_L(series, s, n_cutoff=n_cutoff)
        assert complex(got) == complex(imprimitive_L_by_terms(series, s, n_cutoff)), s
        precision(200)
        got, _ = imprimitive_L(series, s, n_cutoff=n_cutoff)
        want = imprimitive_L_by_terms(series, s, n_cutoff, prec=200)
        assert abs(got - want) <= abs(want) * mpmath.ldexp(1, -190), s


@pytest.mark.parametrize("s", [14, 13.5, 14 + 40j, 60, 60 + 3j])
def test_local_value_against_the_fraction_oracle(s, monkeypatch):
    # each factor of euler_product_L against floor(2^W num(x) / den(x)) at the
    # exact rounded x = l^{-s}, in Fractions: within the one unit that its
    # docstring allows, and equal over Q unless the tiny shortcut is taken,
    # which at s = 60 the large l take and the small l do not; split, inert
    # and ramified l, over Q(sqrt 13) and Q(sqrt 5)
    poly_at, shortcut = lseries._poly_at, set()
    calls = []
    monkeypatch.setattr(lseries, "_poly_at", lambda *a: calls.append(a) or poly_at(*a))
    for series in (AsaiLSeries(_delta_over(13)), *map(_route_series, ("irrational", "twisted"))):
        e = series.form.coefficient_field.e or 0
        with mp_context():
            s_m = mpmath.mpc(s) if complex(s).imag else mpmath.mpf(s)
            w = mpmath.mp.prec + GUARD_BITS
            for ell in (2, 3, 5, 7, 11, 13, 17, 461, 463, 467, 499):
                x, before = inverse_power(ell, s_m), len(calls)
                num, den = series.local_factor(ell)
                got = lseries._local_value(num, den, x, w, e)
                want = local_value_by_fractions(num, den, *exact_fixed(x), w)
                tiny = len(calls) == before
                shortcut.add(tiny)
                got, want = (got.real, got.imag), (want if isinstance(want, tuple) else (want, 0))
                assert all(abs(g - h) <= (1 if e or tiny else 0) for g, h in zip(got, want)), \
                    (series.form.field, ell, s)
    assert shortcut == ({False, True} if complex(s).real == 60 else {False}), s


@pytest.mark.parametrize("s", [14, 13.5, 14 + 40j])
def test_euler_product_L_matches_the_horner_route(s, precision):
    # the irrational and the twisted form against mpmath Horner per prime:
    # the same doubles, and within 2^-190 at 200 bits
    for case in ("irrational", "twisted"):
        series = _route_series(case)
        precision(64)
        got, _ = euler_product_L(series, s, ell_cutoff=300)
        assert complex(got) == complex(euler_product_L_by_horner(series, s, 300)), case
        precision(200)
        got, _ = euler_product_L(series, s, ell_cutoff=300)
        want = euler_product_L_by_horner(series, s, 300, prec=200)
        assert abs(got - want) <= abs(want) * mpmath.ldexp(1, -190), case


def test_imprimitive_L_sieves_once(bc_form_500, monkeypatch):
    # the alpha table's primes, its multiplicative assembly and the n^{-s}
    # ladder all read the one sieve table, which a first call grows to N and
    # a second call, or any smaller n, reads as it is
    series = AsaiLSeries(bc_form_500)
    monkeypatch.setattr(arith, "_spf", ())
    imprimitive_L(series, 14, n_cutoff=500)
    table = arith._spf
    assert len(table) == 501 and smallest_prime_factors(100) is table
    imprimitive_L(series, 14, n_cutoff=500)
    assert arith._spf is table and primes_up_to(10) == [2, 3, 5, 7]


def test_imprimitive_L_keeps_no_list_of_terms(bc_form_4000):
    # the transient peak of a call at N = 4000 is the alpha table (0.56 MB)
    # and the n^{-s} table; an fdot that kept every exact product peaked at
    # 1.58 MB above its start
    series = AsaiLSeries(bc_form_4000)
    imprimitive_L(series, 14)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        imprimitive_L(series, 14)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("d", SQUAREFREE_BELOW_30)
def test_delta_base_change_is_sym2_times_twisted_zeta(d):
    # L^imp of the base change of Delta is L(Sym^2 Delta, s) L(eps_F, s - 11)
    # coefficient by coefficient, ramified n included; at a ramified P it sees
    # lambda(P) only through lambda(P)^2, so it checks lambda(P)^2 = a_l^2
    n_max = 1000
    got = imprimitive_coefficients(AsaiLSeries(_delta_over(d)), n_max)
    want = sym2_times_twisted_zeta(d, n_max)
    assert all(got[n] == want[n] for n in range(1, n_max + 1))


@pytest.mark.parametrize("d", SQUAREFREE_BELOW_30)
def test_euler_coefficients_are_sym2_times_twisted_zeta(d):
    # the Euler side alone, local factors expanded exactly, ramified l included
    got = euler_product_coefficients(AsaiLSeries(_delta_over(d)), 500)
    want = sym2_times_twisted_zeta(d, 500)
    assert all(got[n] == want[n] for n in range(1, 501))


def _forms_with_ramified_primes():
    """The Delta base changes over d < 30, the one over Q(sqrt 5) twisted to
    t + t' = 1 and -2, and a synthetic form over Q(sqrt 3), lambda(P) = 3 and
    5 at its two ramified primes and t + t' = 1: forms that AsaiLSeries
    accepts, so of trivial nebentype."""
    yield from (_delta_over(d) for d in SQUAREFREE_BELOW_30)
    base = _delta_over(5)
    for weight in (Weight(14, 12, 0, 1), Weight(10, 10, -1, -1)):
        yield HilbertEigenform(base.field, weight, base.level, base.coefficient_field,
                               base.eigenvalues)
    yield synthetic_form(RealQuadraticField(3), Weight(4, 2, 0, 1), {2: [3], 3: [5]})


def test_series_refuses_a_nebentype():
    # chi would be the nebentype on (Z/N)^x, and only the trivial one is known
    form = synthetic_form(RealQuadraticField(3), Weight(4, 2, 0, 1), {2: [3]}, eps_values={2: -1})
    with pytest.raises(LSeriesError, match="nontrivial nebentype restriction not implemented"):
        AsaiLSeries(form)


def test_ramified_local_factor_matches_the_series_oracle():
    for form in _forms_with_ramified_primes():
        series = AsaiLSeries(form)
        for ell, _ in factorise(form.field.disc):
            got = power_series_quotient(*series.local_factor(ell), 41)
            want = ramified_local_factor_series(form, ell, 40)
            assert got == want, (form.field, form.weight, ell)


@pytest.mark.parametrize("d", SQUAREFREE_BELOW_30)
def test_euler_product_L_matches_the_power_series_route(d):
    # the closed-form ramified factor gives the doubles of the 40-term series
    series = AsaiLSeries(_delta_over(d))
    for s in (14, 14 + 1j, 13.5, 20):
        got, _ = euler_product_L(series, s, ell_cutoff=500)
        assert complex(got) == complex(euler_product_L_by_series(series, s, 500)), s


@pytest.mark.parametrize("bits", [24, 64, 192])
def test_inverse_power_against_mpmath_power(bits):
    # both L-value routes take p^{-s} from inverse_power: at every prime
    # p <= 4000 it is within 2^-bits of p^{-s} relative, as its docstring
    # states, against mpmath.power at 300 bits of the same rounded s
    primes = primes_up_to(4000)
    for s in (13, 14.37, 16, 14 + 1j, 14 + 40j):
        with mpmath.workprec(bits):
            s_m = mpmath.mpmathify(s)
            got = [inverse_power(p, s_m) for p in primes]
        with mpmath.workprec(300):
            for p, value in zip(primes, got):
                want = mpmath.power(p, -s_m)
                assert abs(value - want) <= abs(want) * mpmath.ldexp(1, -bits), (s, p)


def _read_by_the_other_route(*args):
    raise AssertionError("criterion 7's routes must not share a coefficient source")


def test_criterion_7_routes_stay_independent(bc_form_500, monkeypatch):
    # the Euler product runs with the alpha table and lambda((n)) gone, and the
    # Dirichlet series with the local factors gone; each gives what it gave
    # before
    series = AsaiLSeries(bc_form_500)
    euler = euler_product_L(series, 14, ell_cutoff=200)[0], \
        euler_product_coefficients(series, 200)
    dirichlet = imprimitive_L(series, 14, n_cutoff=500)[0], \
        imprimitive_coefficients(series, 200)
    with monkeypatch.context() as patch:
        patch.setattr(lseries, "dirichlet_alpha_table", _read_by_the_other_route)
        patch.setattr(HilbertEigenform, "lambda_rational", _read_by_the_other_route)
        assert (euler_product_L(series, 14, ell_cutoff=200)[0],
                euler_product_coefficients(series, 200)) == euler
    with monkeypatch.context() as patch:
        patch.setattr(AsaiLSeries, "local_factor", _read_by_the_other_route)
        assert (imprimitive_L(series, 14, n_cutoff=500)[0],
                imprimitive_coefficients(series, 200)) == dirichlet
