import gc
import json
import random
import re
import tracemalloc

import pytest

from asailab import eigenform
from asailab.characters import DirichletCharacter
from asailab.coeffs import CoefficientField
from asailab.eigenform import (EigenformError, HilbertEigenform,
                               MissingEigenvalueError, Weight, base_change, check_hecke_relations,
                               discriminant_form_ap, load_eigenform)
from asailab.arith import primes_up_to
from asailab.padic import PadicError, stabilized_params, to_padic
from asailab.lseries import dirichlet_alpha_table
from asailab.quadfield import RealQuadraticField, ideal_label, ideals_of_norm, splitting_type
from oracles import ideal_power, lambda_of_by_ideal_powers, tau_oracle

CF = CoefficientField(None)


def test_weight_validation():
    w = Weight(4, 2, 0, 1)
    assert (w.k, w.kprime, w.w) == (2, 0, 4)
    with pytest.raises(EigenformError):
        Weight(3, 4, 0, 0)  # parity
    with pytest.raises(EigenformError):
        Weight(4, 4, 0, 1)  # r1 + 2t1 != r2 + 2t2
    with pytest.raises(EigenformError):
        Weight(1, 1, 0, 0)


def test_tau_table_matches_independent_oracle():
    ours = discriminant_form_ap(200)
    oracle = tau_oracle(200)
    for p, v in ours.items():
        assert v == oracle[p]
    assert ours[2] == -24 and ours[3] == 252 and ours[11] == 534612


def test_tau_table_grows_and_returns_fresh_dicts(monkeypatch):
    # from an empty table, each bound either continues the recurrence from
    # the table's end or reads below it, with the same tau(p) either way;
    # a caller's dict is its own
    monkeypatch.setattr(eigenform, "_eta24", [1])
    oracle = tau_oracle(4002)
    for bound in (300, 4000, 17, 1000, 4001, 2, 1, 0):
        assert discriminant_form_ap(bound) == {p: oracle[p] for p in primes_up_to(bound)}
    ap = discriminant_form_ap(50)
    ap[2] = 0
    del ap[47]
    assert discriminant_form_ap(50) == {p: oracle[p] for p in primes_up_to(50)}


def test_tau_congruence_and_deligne_bound():
    # Ramanujan's tau(p) = 1 + p^11 (mod 691) and Deligne's |tau(p)| <= 2 p^{11/2}
    # hold for every prime, independently of how the table is computed
    tau = discriminant_form_ap(4000)
    assert sorted(tau) == primes_up_to(4000)
    for p, t in tau.items():
        assert (t - 1 - p ** 11) % 691 == 0, p
        assert t * t <= 4 * p ** 11, p


def test_base_change_examples(field5):
    ap = discriminant_form_ap(120)
    form = base_change(ap, 12, None, field5, bound=120)
    # inert 2: lambda(2 O_F) = tau(2)^2 - 2 * 2^11
    assert form.lambda_rational(2) == (-24) ** 2 - 2 * 2 ** 11 == -3520
    # split 11: lambda at both primes equals tau(11)
    for p in field5.primes_above(11):
        assert form.stored(p) == tau_oracle(20 ** 2)[11]
    # Galois-conjugation symmetry
    for ell in (11, 19, 29):
        p, q = field5.primes_above(ell)
        assert form.stored(p) == form.stored(q)


def test_base_change_zero_input():
    field5 = RealQuadraticField(5)
    ap = {p: 0 for p in (2, 3, 5, 7)}
    form = base_change(ap, 2, None, field5, bound=7)
    # inert 3, k_cl = 2: lambda(3 O_F) = 0 - 2 * 3 = -6
    assert form.lambda_rational(3) == -6


def test_base_change_missing_ap():
    field5 = RealQuadraticField(5)
    with pytest.raises(MissingEigenvalueError):
        base_change({2: -24}, 12, None, field5, bound=10)
    with pytest.raises(EigenformError):
        base_change({2: -24}, 1, None, field5, bound=2)
    with pytest.raises(EigenformError, match="without nebentype"):
        base_change({2: -24}, 12, DirichletCharacter(3, [0]), field5, bound=2)


def test_check_hecke_relations(field5, bc_form_500):
    assert check_hecke_relations(bc_form_500, 100) == []
    # perturb lambda(p^2) by +1: exactly one violation at the square
    ap = discriminant_form_ap(150)
    form = base_change(ap, 12, None, field5, bound=150)
    p11 = field5.primes_above(11)[0]
    key = (p11 * p11).hnf()
    form.eigenvalues[key] = form.eigenvalues[key] + 1
    violations = check_hecke_relations(form, 121)
    assert len(violations) == 1
    assert violations[0]["prime"] == ideal_label(p11)
    assert violations[0]["power"] == 2
    # trivial bound
    assert check_hecke_relations(bc_form_500, 1) == []


def test_check_hecke_relations_reports_a_broken_composite_within_its_bound(field5):
    form = base_change(discriminant_form_ap(150), 12, None, field5, bound=150)
    six = field5.ideal(6)  # (2)(3), both inert: norm 36
    want = form.lambda_of(six)
    form.eigenvalues[six.hnf()] = want + 1
    assert check_hecke_relations(form, 36) == [
        {"ideal": ideal_label(six), "power": None, "lhs": repr(want + 1), "rhs": repr(want)}]
    assert check_hecke_relations(form, 35) == []


def test_check_hecke_relations_missing_data(field5):
    ap = discriminant_form_ap(20)
    form = base_change(ap, 12, None, field5, bound=20)
    with pytest.raises(MissingEigenvalueError):
        check_hecke_relations(form, 500)


def test_alpha_coeff(field5):
    # (t, t') = (0, 1) with lambda(2) = 10 gives alpha(2) = 2^-1 lambda(2) = 5
    w = Weight(4, 2, 0, 1)
    p2 = field5.primes_above(2)[0]
    eig = {p2.hnf(): CF.element(10),
           (p2 * p2).hnf(): CF.element(100 - 4 ** (w.w - 1))}
    form = HilbertEigenform(field5, w, field5.maximal_order(), CF, eig)
    assert form.lambda_rational(1) == 1 and form.lambda_rational(2) == 10
    assert dirichlet_alpha_table(form, 2)[1:] == [(1, 0, 1), (5, 0, 1)]


def test_alpha_multiplicative(bc_form_500):
    # t = t' = 0: alpha(n) = lambda((n)), multiplicative in coprime n
    lam = bc_form_500.lambda_rational
    for a, b in ((2, 3), (4, 9), (11, 4), (5, 22)):
        assert lam(a * b) == lam(a) * lam(b)


def test_serialisation_round_trip(tmp_path, field5):
    ap = discriminant_form_ap(50)
    form = base_change(ap, 12, None, field5, bound=50)
    path1 = tmp_path / "form.json"
    path2 = tmp_path / "form2.json"
    form.save(path1)
    reloaded = load_eigenform(str(path1))
    reloaded.save(path2)
    assert path1.read_bytes() == path2.read_bytes()
    assert reloaded.eigenvalues == form.eigenvalues


def test_load_validation_errors(tmp_path, field5):
    ap = discriminant_form_ap(50)
    form = base_change(ap, 12, None, field5, bound=50)
    data = form.to_json()
    # weight parity violation: (k, k') = (1, 2) means weight [3, 4, ...]
    bad = dict(data, weight=[3, 4, 0, 0])
    with pytest.raises(EigenformError):
        load_eigenform(bad)
    # eigenvalue at an ideal that does not exist in the field
    bad = json.loads(json.dumps(data))
    bad["eigenvalues"].append({"ideal": "3.0", "lambda": "1"})
    with pytest.raises(Exception):
        load_eigenform(bad)
    # multiplicativity: store lambda((6)) != lambda((2)) lambda((3))
    bad = json.loads(json.dumps(data))
    six = field5.ideal(6)
    bad["eigenvalues"].append({"ideal": ideal_label(six), "lambda": "1"})
    with pytest.raises(EigenformError,
                       match=rf"multiplicativity violated at {re.escape(ideal_label(six))}:"):
        load_eigenform(bad)
    # missing schema field
    with pytest.raises(EigenformError):
        load_eigenform({"d": 5})


def test_lambda_of_identity(bc_form_500, field5):
    assert bc_form_500.lambda_of(field5.maximal_order()) == 1
    assert bc_form_500.lambda_rational(1) == 1


@pytest.mark.parametrize("d", [2, 5, 10, 17])
def test_lambda_of_matches_the_ideal_power_oracle(d):
    # d = 10 has class number 2, so non-principal composites are covered.  The
    # keys of a base change to 100 (split primes of norm 101..499 are missing)
    # get random values, so P^e and Pbar^e differ and no Hecke relation hides
    # a part read from the wrong key
    field = RealQuadraticField(d)
    bc = base_change(discriminant_form_ap(100), 12, None, field, bound=100)
    rng = random.Random(d)
    form = HilbertEigenform(field, bc.weight, bc.level, CF,
                            {key: CF.element(rng.randint(-999, 999)) for key in bc.eigenvalues
                             if key != (1, 0, 1)})
    missing = 0
    for norm in range(1, 500):
        for ideal in ideals_of_norm(field, norm):
            want = lambda_of_by_ideal_powers(form, ideal)
            if want is None:
                missing += 1
                with pytest.raises(MissingEigenvalueError):
                    form.lambda_of(ideal)
            else:
                assert form.lambda_of(ideal) == want, (d, ideal)
    assert missing
    for n in range(1, 23):
        want = lambda_of_by_ideal_powers(form, field.ideal(n))
        assert want is None or form.lambda_rational(n) == want, (d, n)


@pytest.mark.parametrize("d, bound, n", [
    (5, 30, 400),    # 2 inert: lambda((2)^7) = lambda(2^7) is the first missing value
    (17, 50, 400),   # 2 split: P^6, the first prime above 2, is named
    (2, 30, 400),    # 2 ramified: (2^5) = P^10
    (5, 100, 101),   # 101 split, nothing stored above it
])
def test_lambda_rational_names_missing_ideal(d, bound, n):
    # the local route must name the same prime power as a factorisation of (n)
    field = RealQuadraticField(d)
    form = base_change(discriminant_form_ap(bound), 12, None, field, bound=bound)
    for m in range(1, n + 1):
        try:
            form.lambda_of(field.ideal(m))
        except MissingEigenvalueError as exc:
            with pytest.raises(MissingEigenvalueError) as got:
                form.lambda_rational(m)
            assert str(got.value) == str(exc)
            break
    else:
        pytest.fail("form unexpectedly complete")


def test_is_ordinary_examples(field5):
    # p = 11 splits and divides the level: alpha at each prime above p is its
    # stored U-eigenvalue, and the form is ordinary only when that is a unit
    above = field5.primes_above(11)

    def form(*lams):
        eig = {P.hnf(): CF.element(lam) for P, lam in zip(above, lams)}
        return HilbertEigenform(field5, Weight(2, 2, 0, 0), field5.ideal(11), CF, eig)
    data = stabilized_params(form(12, 13), 11)
    assert (data.alpha_p, data.alpha_q) == (12, 13)
    assert not data.notes["stabilised_on_the_fly"]
    with pytest.raises(PadicError, match="not ordinary"):
        stabilized_params(form(12, 11), 11)
    with pytest.raises(PadicError, match="missing"):
        stabilized_params(form(12), 11)


def test_is_ordinary_quadratic_coefficients():
    # coefficient field Q(sqrt 2), p = 7 split in Q(sqrt 2) and dividing the
    # level: under sqrt2 -> 3, U = 4 - sqrt2 is 1 mod 7 and its conjugate
    # 4 + sqrt2 is 0
    field, cf = RealQuadraticField(2), CoefficientField(2)

    def form(u):
        eig = {P.hnf(): u for P in field.primes_above(7)}
        return HilbertEigenform(field, Weight(2, 2, 0, 0), field.ideal(7), cf, eig)

    u = cf.element(4, -1)
    data = stabilized_params(form(u), 7)
    assert data.alpha_p == u and to_padic(u, 7).val == 0
    with pytest.raises(PadicError, match="not ordinary"):
        stabilized_params(form(cf.element(4, 1)), 7)


def test_nebentype_lookup(field5):
    w = Weight(2, 2, 0, 0)
    p11, q11 = field5.primes_above(11)
    eig = {p11.hnf(): CF.element(1), q11.hnf(): CF.element(1),
           (p11 * p11).hnf(): CF.element(1 - 11 ** (w.w - 1) * -1),
           (q11 * q11).hnf(): CF.element(1 - 11 ** (w.w - 1) * -1)}
    neb = {p11.hnf(): CF.element(-1), q11.hnf(): CF.element(-1)}
    form = HilbertEigenform(field5, w, field5.maximal_order(), CF, eig, neb)
    assert form.eps_of(p11) == -1
    with pytest.raises(EigenformError, match="nebentype missing"):
        form.eps_of(p11 * q11)  # a lookup at primes only
    plain = HilbertEigenform(field5, w, field5.maximal_order(), CF, dict(eig))
    assert plain.eps_of(p11) == 1


def test_base_change_forms_are_small_and_share_their_keys():
    # forms of one field store their eigenvalues under the same key tuples,
    # P^r, Pbar^r of a split prime under one value, and lambda(P) = tau(l)
    # as the int the tau table holds, not a copy of it: four forms built
    # with warm caches retain at most 55 KB each (68 KB when each form held
    # its own keys and ran the recursion once per prime above a split l)
    field, bound = RealQuadraticField(5), 1350
    ap = discriminant_form_ap(bound)
    warm = base_change(ap, 12, None, field, bound=bound)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forms = [base_change(ap, 12, None, field, bound=bound) for _ in range(4)]
        gc.collect()
        per_form = (tracemalloc.get_traced_memory()[0] - before) / len(forms)
    finally:
        if started:
            tracemalloc.stop()
    assert per_form <= 55 * 1024, per_form
    for form in forms:
        assert form.eigenvalues == warm.eigenvalues
        assert all(a is b for a, b in zip(form.eigenvalues, warm.eigenvalues))
    types = [splitting_type(field, ell) for ell in primes_up_to(bound)]
    split = [st for st in types if st.is_split]
    assert split
    for st in split:
        p, pbar = st.primes
        assert all(form.stored(p).x is ap[st.ell] for form in forms), st.ell
        r = 1
        while st.ell ** r <= bound:
            assert warm.stored(ideal_power(p, r)) is warm.stored(ideal_power(pbar, r)), (st.ell, r)
            r += 1
