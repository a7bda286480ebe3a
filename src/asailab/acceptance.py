"""The acceptance suite: one callable per criterion, shared by the CLI
`acceptance` subcommand and the pytest acceptance module.

Each criterion returns a dict with name, passed, elapsed seconds and details;
tolerances are pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import mpmath

from .quadfield import RealQuadraticField, _is_prime, splitting_type
from .coeffs import CoefficientField
from .eigenform import (HilbertEigenform, Weight, base_change,
                        check_hecke_relations, discriminant_form_ap)
from . import heckealg
from .asairep import (asai_charpoly, euler_system_norm_factor,
                      verify_proj_Pl, GroupRingElement)
from .eisenstein import (diagonal_mellin_check, eisenstein_continued,
                         eisenstein_lattice_sum, kronecker_limit_check)
from .lseries import (AsaiLSeries, euler_product_coefficients, euler_product_L,
                      imprimitive_coefficients, imprimitive_L)
from .characters import DirichletCharacter, kronecker_symbol
from .padic import (OrdinaryData, check_NEZ, gauss_sum, pr_interp_factor)


def _result(name, passed, started, **details):
    return {"criterion": name, "passed": bool(passed),
            "elapsed_s": round(time.perf_counter() - started, 3), "details": details}


def _headroom(budget, elapsed):
    """budget / elapsed: how many times the elapsed time fits in the budget."""
    return round(budget / max(elapsed, 1e-9), 2)


@lru_cache(maxsize=2)
def _field(d):
    return RealQuadraticField(d)


@lru_cache(maxsize=2)
def _bc_form(bound):
    return base_change(discriminant_form_ap(bound), 12, None, _field(5), bound=bound)


def _synthetic_form(d, weight, local_lambdas, eps_values=None):
    """One-or-few-prime synthetic eigenform with prime squares filled."""
    field = _field(d)
    cf = CoefficientField(None)
    eig = {}
    neb = {}
    for ell, lams in local_lambdas.items():
        primes = field.primes_above(ell)
        for p, lam in zip(primes, lams):
            lam = cf.element(lam)
            eps = cf.element((eps_values or {}).get(ell, 1))
            eig[p.hnf()] = lam
            eig[(p * p).hnf()] = lam * lam - Fraction(p.norm() ** (weight.w - 1)) * eps
            if eps_values:
                neb[p.hnf()] = eps
    return HilbertEigenform(field, weight, field.maximal_order(), cf, eig, neb)


# -- 1: tensor induction vs Euler factor ---------------------------------------

def criterion_1():
    started = time.perf_counter()
    rng = random.Random(20260810)
    fields = [2, 3, 5, 13]
    weights = {2: [Weight(2, 2, 0, 0)],
               4: [Weight(4, 4, 0, 0), Weight(2, 2, 1, 1)]}
    split_done = inert_done = 0
    failures = []
    while split_done < 200 or inert_done < 200:
        d = rng.choice(fields)
        ell = rng.choice([p for p in range(2, 100) if _is_prime(p)])
        field = _field(d)
        if field.disc % ell == 0:
            continue
        st = splitting_type(field, ell)
        if st.is_split and split_done >= 200:
            continue
        if st.is_inert and inert_done >= 200:
            continue
        w = rng.choice(weights[rng.choice([2, 4])])
        eps = rng.choice([1, 1, 1, -1])
        lams = [Fraction(rng.randint(-50, 50)) for _ in st.primes]
        form = _synthetic_form(d, w, {ell: lams}, {ell: eps})
        if not verify_proj_Pl(form, ell):
            failures.append((d, ell, w, [str(x) for x in lams]))
        if st.is_split:
            split_done += 1
        else:
            inert_done += 1
    # fixed instances from the operation contract
    f_split = _synthetic_form(11, Weight(2, 2, 0, 0), {5: [2, 3]})
    fixed_split = asai_charpoly(f_split, 5).coeffs == [1, -6, 15, -150, 625]
    f_inert = _synthetic_form(5, Weight(2, 2, 0, 0), {3: [5]})
    fixed_inert = asai_charpoly(f_inert, 3).coeffs == [1, -5, 0, 45, -81]
    elapsed = time.perf_counter() - started
    passed = not failures and fixed_split and fixed_inert and elapsed < 10.0
    return _result("1 tensor-induction == Euler factor (200 split + 200 inert)",
                   passed, started, failures=failures[:3],
                   fixed_split=fixed_split, fixed_inert=fixed_inert,
                   runtime_budget_s=10.0, headroom=_headroom(10.0, elapsed))


# -- 2: split X^2 identity -------------------------------------------------------

def criterion_2():
    started = time.perf_counter()
    checked = 0
    failures = []
    for d in (2, 3, 5, 13):
        field = _field(d)
        for ell in range(2, 200):
            if not _is_prime(ell) or field.disc % ell == 0:
                continue
            if not splitting_type(field, ell).is_split:
                continue
            lam, lambar = heckealg.split_labels(ell)
            if not heckealg.verify_split_x2_identity(lam, lambar):
                failures.append((d, ell))
            checked += 1
    elapsed = time.perf_counter() - started
    passed = not failures and checked > 0 and elapsed < 5.0
    return _result("2 split X^2-coefficient identity (split ell < 200, d in {2,3,5,13})",
                   passed, started, pairs_checked=checked, failures=failures,
                   runtime_budget_s=5.0, headroom=_headroom(5.0, elapsed))


# -- 3: rewrite confluence -------------------------------------------------------

def _random_expression(rng, labels):
    expr = heckealg.HeckePolynomial.constant(rng.randint(-4, 4))
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["T", "S", "D", "R", "T"])
        arg = {rng.choice(labels): rng.randint(1, 2)}
        if rng.random() < 0.4:
            arg[rng.choice(labels)] = rng.randint(1, 2)
        gen = {"T": heckealg.T, "S": heckealg.S,
               "D": heckealg.diamond, "R": heckealg.R}[kind](arg)
        if rng.random() < 0.35:
            gen = gen + heckealg.HeckePolynomial.constant(rng.randint(-3, 3))
        if rng.random() < 0.2:
            gen = gen * heckealg.X()
        expr = expr * gen
    return expr


def criterion_3():
    started = time.perf_counter()
    rng = random.Random(1729)
    labels = [heckealg.PrimeLabel("a", 7), heckealg.PrimeLabel("b", 11),
              heckealg.PrimeLabel("c", 49), heckealg.PrimeLabel("u", 1, unit=True)]
    bad = 0
    for _ in range(500):
        e1 = _random_expression(rng, labels)
        e2 = _random_expression(rng, labels)
        lhs = heckealg.normalize(e1 * e2)
        rhs = heckealg.normalize(heckealg.normalize(e1) * heckealg.normalize(e2))
        n1 = heckealg.normalize(e1)
        if lhs != rhs or heckealg.normalize(n1) != n1:
            bad += 1
    return _result("3 Hecke rewrite confluence + idempotence (500 random pairs)",
                   bad == 0, started, failures=bad)


# -- 4: Kronecker limit -----------------------------------------------------------

KRONECKER_TOL = 1e-8


def criterion_4():
    started = time.perf_counter()
    worst = 0.0
    grid = []
    for alpha in (Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)):
        for tau in (1j, 2j, (1 + 3j) / 2):
            resid = float(kronecker_limit_check(alpha, tau))
            grid.append({"alpha": str(alpha), "tau": str(tau), "residual": resid})
            worst = max(worst, resid)
    elapsed = time.perf_counter() - started
    passed = worst < KRONECKER_TOL and elapsed < 30.0
    return _result("4 Kronecker-limit identity (9 grid points)", passed, started,
                   worst_residual=worst, tolerance=KRONECKER_TOL, grid=grid,
                   runtime_budget_s=30.0, headroom=_headroom(30.0, elapsed))


# -- 5: Eisenstein dual method + invariance ----------------------------------------

DUAL_TOL = 1e-8


def criterion_5():
    started = time.perf_counter()
    pts = []
    for k, s in [(6, 0), (4, 1), (2, 2), (3, 2), (5, 1), (7, 0), (4, 2)]:
        for alpha, tau in [(Fraction(1, 5), 1j), (Fraction(1, 4), 0.3 + 1.2j),
                           (Fraction(2, 7), -0.25 + 0.8j)]:
            pts.append((k, alpha, tau, s))
    worst = 0.0
    for k, alpha, tau, s in pts[:20]:
        lat = eisenstein_lattice_sum(k, alpha, tau, s, 350)
        con = complex(eisenstein_continued(k, alpha, tau, s))
        worst = max(worst, abs(lat - con))
    # weight-k invariance under two elements of Gamma_1(5)
    inv_worst = 0.0
    tau = 0.23 + 0.9j
    for (a, b, c, d), (k, s) in [(((1, 1, 0, 1)), (2, 0)), (((1, 0, 5, 1)), (2, 0))]:
        gt = (a * tau + b) / (c * tau + d)
        e1 = complex(eisenstein_continued(k, Fraction(1, 5), gt, s))
        e2 = (c * tau + d) ** k * complex(eisenstein_continued(k, Fraction(1, 5), tau, s))
        inv_worst = max(inv_worst, abs(e1 - e2))
    passed = worst < DUAL_TOL and inv_worst < DUAL_TOL
    return _result("5 Eisenstein dual-method agreement + Gamma_1(5) invariance",
                   passed, started, grid_points=20, worst_dual=worst,
                   worst_invariance=inv_worst, tolerance=DUAL_TOL)


# -- 6: base-change pipeline --------------------------------------------------------

def criterion_6():
    started = time.perf_counter()
    form = _bc_form(500)
    violations = check_hecke_relations(form, 500)
    factor_fail = []
    for ell in range(2, 51):
        if not _is_prime(ell) or ell == 5:
            continue
        pl = asai_charpoly(form, ell)
        chi = kronecker_symbol(form.field.disc, ell)
        try:
            quot = pl.divide_by_linear(Fraction(chi * ell ** 11))
        except Exception:
            factor_fail.append(ell)
            continue
        if len(quot) != 4:
            factor_fail.append(ell)
    passed = not violations and not factor_fail
    return _result("6 base-change pipeline: Hecke relations to 500 + "
                   "(deg 3)(1 - chi_D(l) l^11 X) factorisation, l <= 50",
                   passed, started, hecke_violations=violations[:3],
                   factorisation_failures=factor_fail)


# -- 7: Dirichlet vs Euler -----------------------------------------------------------

L_AGREE_TOL = 1e-6


def criterion_7():
    started = time.perf_counter()
    series = AsaiLSeries(_bc_form(4000))
    v_dir, _ = imprimitive_L(series, 14, n_cutoff=4000)
    v_eul, _ = euler_product_L(series, 14, ell_cutoff=500)
    rel = float(abs(v_dir - v_eul) / abs(v_dir))
    ec = euler_product_coefficients(series, 500)
    ic = imprimitive_coefficients(series, 500)
    mismatches = [n for n in range(1, 501) if ec[n] != ic[n]]
    passed = rel < L_AGREE_TOL and not mismatches
    return _result("7 Dirichlet-series vs Euler-product consistency at s = 14",
                   passed, started, relative_difference=rel, tolerance=L_AGREE_TOL,
                   dirichlet=float(mpmath.re(v_dir)), euler=float(mpmath.re(v_eul)),
                   coefficient_mismatches=mismatches[:5])


# -- 8: diagonal Mellin kernel --------------------------------------------------------

MELLIN_TOL = 1e-4
MELLIN_STAB_TOL = 1e-6


def criterion_8():
    started = time.perf_counter()
    form = _bc_form(1000)
    lhs, rhs, resid = diagonal_mellin_check(form, 14, y_cutoff=40.0, n_max=600)
    lhs_half, _, _ = diagonal_mellin_check(form, 14, y_cutoff=20.0, n_max=600)
    stability = abs(lhs - lhs_half)
    passed = resid < MELLIN_TOL and stability < MELLIN_STAB_TOL
    return _result("8 diagonal Mellin / unfolding kernel at s' = 14", passed, started,
                   lhs=lhs, rhs=rhs, relative_residual=resid, tolerance=MELLIN_TOL,
                   cutoff_stability=stability, stability_tolerance=MELLIN_STAB_TOL)


# -- 9: norm-relation scalars ----------------------------------------------------------

def criterion_9():
    started = time.perf_counter()
    form = _synthetic_form(5, Weight(2, 2, 0, 0), {3: [5]})
    got = euler_system_norm_factor(form, 3, 0, 5)
    expect = GroupRingElement(5, {1: Fraction(5), 3: Fraction(2),
                                  4: Fraction(-5), 2: Fraction(-2)})
    fixture_ok = got == expect
    annihilation_ok = euler_system_norm_factor(form, 3, 0, 4).is_zero()
    passed = fixture_ok and annihilation_ok
    return _result("9 Euler-system norm-relation scalar fixtures (m = 5, m = 4)",
                   passed, started, m5=str(got), m5_matches=fixture_ok,
                   m4_annihilates=annihilation_ok)


# -- 10: p-adic bookkeeping --------------------------------------------------------------

def criterion_10():
    started = time.perf_counter()
    checks = {}
    data = [OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(6), alpha_q=Fraction(1)),
            OrdinaryData(p=5, k=2, kprime=2, alpha_p=Fraction(7), alpha_q=Fraction(-4)),
            OrdinaryData(p=7, k=3, kprime=1, alpha_p=Fraction(2, 3), alpha_q=Fraction(5))]
    checks["valuations"] = all(
        od.valuations() == sorted([0, od.k + 1, od.kprime + 1, od.k + od.kprime + 2])
        for od in data)
    checks["nez_shortcut"] = check_NEZ(
        OrdinaryData(p=5, k=1, kprime=0, alpha_p=Fraction(2), alpha_q=Fraction(3)))[0]
    fac = pr_interp_factor(Fraction(2), 0, 0, p=5, kprime=0)
    checks["pr_fixture"] = (fac.scalar == Fraction(5, 6) and fac.tag == "log"
                            and fac.tag_constant == 1)
    gauss_ok = True
    for p, r in ((5, 1), (5, 2), (3, 2), (7, 1)):
        for eta in DirichletCharacter.all_characters(p ** r):
            if not eta.is_primitive():
                continue
            g = gauss_sum(eta)
            if (g * g.conjugate()).rational_value() != p ** r:
                gauss_ok = False
    checks["gauss_norms"] = gauss_ok
    passed = all(checks.values())
    return _result("10 p-adic bookkeeping: valuations, NEZ shortcut, PR fixture, "
                   "Gauss norms", passed, started, **checks)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_acceptance(selection=None, echo=False):
    """Run the acceptance criteria; returns (all_passed, list of results)."""
    wanted = set(selection) if selection else set(range(1, len(CRITERIA) + 1))
    results = []
    for idx, crit in enumerate(CRITERIA, start=1):
        if idx not in wanted:
            continue
        res = crit()
        results.append(res)
        if echo:
            status = "PASS" if res["passed"] else "FAIL"
            print(f"[{status}] {res['criterion']} ({res['elapsed_s']}s)")
    return all(r["passed"] for r in results), results
