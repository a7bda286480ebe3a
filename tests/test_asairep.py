import random
from fractions import Fraction

import pytest

from asailab.asairep import (AsaiCharPoly, AsaiRepError, GroupRingElement,
                             HypothesisError, asai_charpoly,
                             asai_charpoly_via_induction, c_factor,
                             charpoly_reversed, companion_frobenius,
                             euler_system_norm_factor, mat_eq, mat_mul,
                             tensor_induce_inert, tensor_induce_split,
                             verify_proj_Pl)
from asailab.characters import DirichletCharacter
from asailab.coeffs import CoefficientField
from asailab.eigenform import HilbertEigenform, Weight
from asailab.heckealg import split_labels, inert_label, asai_euler_symbolic
from asailab.quadfield import RealQuadraticField
from oracles import kron_product_asai_roots, leibniz_charpoly_reversed

CF = CoefficientField(None)


def synth_form(d, weight, lambdas_by_ell, eps_by_ell=None):
    field = RealQuadraticField(d)
    eig, neb = {}, {}
    for ell, lams in lambdas_by_ell.items():
        for p, lam in zip(field.primes_above(ell), lams):
            lam = CF.element(lam)
            eps = CF.element((eps_by_ell or {}).get(ell, 1))
            eig[p.hnf()] = lam
            eig[(p * p).hnf()] = lam * lam - Fraction(p.norm() ** (weight.w - 1)) * eps
            if eps_by_ell:
                neb[p.hnf()] = eps
    return HilbertEigenform(field, weight, field.maximal_order(), CF, eig, neb)


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_tensor_induce_split_identity_and_diag():
    i2 = frac_mat([[1, 0], [0, 1]])
    assert mat_eq(tensor_induce_split(i2, i2), frac_mat(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    a, b, ap, bp = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    d1 = frac_mat([[a, 0], [0, b]])
    d2 = frac_mat([[ap, 0], [0, bp]])
    got = tensor_induce_split(d1, d2)
    # basis (e1 x e1, e2 x e1, e1 x e2, e2 x e2): diag(a a', b a', a b', b b')
    assert [got[i][i] for i in range(4)] == [a * ap, b * ap, a * bp, b * bp]


def test_tensor_induce_inert_swap_and_charpoly():
    i2 = frac_mat([[1, 0], [0, 1]])
    swap = tensor_induce_inert(i2)
    # e1 x e2 <-> e2 x e1; char poly (1-X)^3 (1+X)
    assert charpoly_reversed(swap) == [1, -2, 0, 2, -1]
    a, b = Fraction(3), Fraction(-2)
    diag = tensor_induce_inert(frac_mat([[a, 0], [0, b]]))
    # (1 - aX)(1 - bX)(1 - ab X^2), eigenvalues {a, b, +-sqrt(ab)}
    want = [Fraction(1), -(a + b), a * b - a * b, (a * b) * (a + b), -(a * b) ** 2]
    assert charpoly_reversed(diag) == want


def test_tensor_induce_inert_squares_to_split():
    rng = random.Random(11)
    for _ in range(100):
        m = frac_mat([[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
        assert mat_eq(mat_mul(tensor_induce_inert(m), tensor_induce_inert(m)),
                      tensor_induce_split(m, m))


def test_split_charpoly_conjugation_invariance():
    rng = random.Random(12)
    for _ in range(100):
        m1 = frac_mat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        m2 = frac_mat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        base = charpoly_reversed(tensor_induce_split(m1, m2))
        for m, other, first in ((m1, m2, True), (m2, m1, False)):
            g = frac_mat([[1, rng.randint(-3, 3)], [0, 1]])
            ginv = frac_mat([[1, -g[0][1]], [0, 1]])
            conj = mat_mul(mat_mul(g, m), ginv)
            pair = (conj, other) if first else (other, conj)
            assert charpoly_reversed(tensor_induce_split(*pair)) == base


def test_asai_charpoly_fixed_split():
    # split l=5 over d=11, lambda = 2, 3, w = 2, trivial eps
    form = synth_form(11, Weight(2, 2, 0, 0), {5: [2, 3]})
    pl = asai_charpoly(form, 5)
    assert pl.coeffs == [1, -6, 15, -150, 625]
    assert pl.coeffs == kron_product_asai_roots(2, 1, 3, 1, 5, 2)
    assert verify_proj_Pl(form, 5)


def test_asai_charpoly_fixed_inert():
    form = synth_form(5, Weight(2, 2, 0, 0), {3: [5]})
    pl = asai_charpoly(form, 3)
    # (1 - 5X + 9X^2)(1 - 9X^2)
    assert pl.coeffs == [1, -5, 0, 45, -81]
    assert verify_proj_Pl(form, 3)


def test_asai_charpoly_zero_trace():
    form = synth_form(5, Weight(2, 2, 0, 0), {3: [0]})
    pl = asai_charpoly(form, 3)
    assert pl.coeffs[1] == 0 and pl.coeffs[0] == 1
    assert verify_proj_Pl(form, 3)


def test_asai_charpoly_errors():
    form = synth_form(5, Weight(2, 2, 0, 0), {3: [5]})
    with pytest.raises(AsaiRepError):
        asai_charpoly(form, 5)  # ramified


def test_verify_proj_pl_random_and_fault():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.choice([2, 3, 5, 13])
        field = RealQuadraticField(d)
        ell = rng.choice([p for p in (3, 7, 11, 13, 17, 19, 23, 29) if field.disc % p])
        st = field.splitting_type(ell)
        w = rng.choice([Weight(2, 2, 0, 0), Weight(4, 4, 0, 0), Weight(2, 2, 1, 1)])
        lams = [rng.randint(-30, 30) for _ in st.primes]
        eps = rng.choice([1, -1])
        form = synth_form(d, w, {ell: lams}, {ell: eps})
        assert verify_proj_Pl(form, ell)
    # injected fault: perturb one side
    form = synth_form(11, Weight(2, 2, 0, 0), {5: [2, 3]})
    good = asai_charpoly_via_induction(form, 5)
    perturbed = synth_form(11, Weight(2, 2, 0, 0), {5: [3, 3]})
    assert asai_charpoly(perturbed, 5) != good


def test_charpoly_invariants():
    rng = random.Random(14)
    for _ in range(40):
        d = rng.choice([5, 13])
        field = RealQuadraticField(d)
        ell = rng.choice([p for p in (3, 7, 11, 19) if field.disc % p])
        st = field.splitting_type(ell)
        w = Weight(4, 4, 0, 0)
        eps = rng.choice([1, -1])
        form = synth_form(d, w, {ell: [rng.randint(-9, 9) for _ in st.primes]},
                          {ell: eps})
        pl = asai_charpoly(form, ell)
        assert pl.coeffs[0] == 1
        s_eig = Fraction(ell ** (w.k + w.kprime)) * eps * eps if st.is_split \
            else Fraction(ell ** (w.k + w.kprime)) * eps
        # X^4 coefficient is l^4 S(l)^2 per the split display; the inert
        # display (1 - TX + l^2 S X^2)(1 - l^2 S X^2) expands with a minus
        sign = 1 if st.is_split else -1
        assert pl.coeffs[4] == sign * (ell ** 2 * s_eig) ** 2


def test_symbolic_specialisation_matches_charpoly(bc_form_500):
    form = bc_form_500
    good = [p for p in range(2, 100) if p != 5
            and all(p % q for q in range(2, p))]
    for ell in good:
        st = form.field.splitting_type(ell)
        tvals, svals = {}, {}
        if st.is_split:
            labels = split_labels(ell)
            sym = asai_euler_symbolic(ell, "split", labels)
            for lab, p in zip(labels, st.primes):
                tvals[lab.name] = form.lambda_of(p).as_fraction()
                svals[lab.name] = Fraction(ell ** (form.weight.w - 2))
        else:
            lab = inert_label(ell)
            sym = asai_euler_symbolic(ell, "inert", lab)
            p = st.primes[0]
            tvals[lab.name] = form.lambda_of(p).as_fraction()
            svals[lab.name] = Fraction(ell ** (2 * (form.weight.w - 2)))
        spec = sym.specialize(tvals, svals)
        pl = asai_charpoly(form, ell)
        for deg in range(5):
            assert spec.get(deg, Fraction(0)) == pl.coeffs[deg].as_fraction()


def test_group_ring_basics():
    g = GroupRingElement.sigma(5, 3)
    assert g * g == GroupRingElement.sigma(5, 3, 2)
    assert (g * GroupRingElement.sigma(5, 3, -1)) == GroupRingElement.unit(5)
    with pytest.raises(AsaiRepError):
        GroupRingElement(10, {5: Fraction(1)})  # not a unit
    elt = GroupRingElement(5, {1: Fraction(2), 3: Fraction(-2)})
    chi0 = DirichletCharacter.trivial(5)
    assert abs(elt.apply_character(chi0)) < 1e-12


def test_euler_system_norm_factor_fixtures():
    form = synth_form(5, Weight(2, 2, 0, 0), {3: [5]})
    got = euler_system_norm_factor(form, 3, 0, 5)
    want = GroupRingElement(5, {1: Fraction(5), 3: Fraction(2),
                                4: Fraction(-5), 2: Fraction(-2)})
    assert got == want
    assert euler_system_norm_factor(form, 3, 0, 4).is_zero()
    m1 = euler_system_norm_factor(form, 3, 0, 1)
    # sigma -> 1: (l-1)(1 - eps) - l P(F, 1/3) = 0 - 0 here
    assert m1.coeffs.get(0, Fraction(0)) == 0


def test_euler_system_norm_factor_hypotheses():
    form = synth_form(5, Weight(2, 2, 0, 0), {3: [5]})
    with pytest.raises(AsaiRepError):
        euler_system_norm_factor(form, 3, 0, 6)  # gcd(3, 6) != 1
    with pytest.raises(AsaiRepError):
        euler_system_norm_factor(form, 3, 1, 5)  # j > min(k, k')
    # d=3: 11 splits and the primes above are NOT narrowly principal
    # (all generators have norm -11 while the fundamental unit has norm +1)
    form3 = synth_form(3, Weight(2, 2, 0, 0), {11: [1, 1]})
    with pytest.raises(HypothesisError):
        euler_system_norm_factor(form3, 11, 0, 7)
    # d=5 split primes are always narrowly principal (norm -1 unit)
    form5 = synth_form(5, Weight(2, 2, 0, 0), {11: [1, 2]})
    assert euler_system_norm_factor(form5, 11, 0, 7) is not None


def test_c_factor_fixture_and_rejections():
    got = c_factor(7, 0, 0, 0, 1, 1)
    assert got == GroupRingElement(1, {0: Fraction(48)})
    with pytest.raises(AsaiRepError):
        c_factor(2, 0, 0, 0, 1, 1, coprime_to=6)
    with pytest.raises(AsaiRepError):
        c_factor(1, 0, 0, 0, 1, 1)


def test_c_factor_invertible_under_characters():
    # k + k' - 2j > 0 and |eps| = 1: nonzero under every character, m <= 20
    for m in range(1, 21):
        for c in (7, 11, 13):
            if any(c % q == 0 and m % q == 0 for q in (7, 11, 13)) or m % c == 0:
                continue
            import math
            if math.gcd(c, 6 * m) != 1:
                continue
            elt = c_factor(c, 0, 2, 2, 1, m, coprime_to=6 * m)
            for chi in DirichletCharacter.all_characters(m):
                assert abs(elt.apply_character(chi)) > 1e-9


def test_asai_charpoly_class_constraints():
    with pytest.raises(AsaiRepError):
        AsaiCharPoly([1, 2, 3])
    with pytest.raises(AsaiRepError):
        AsaiCharPoly([2, 0, 0, 0, 0])
    pl = AsaiCharPoly([Fraction(1), Fraction(-6), Fraction(15),
                       Fraction(-150), Fraction(625)])
    # division by (1 - 5X) fails, by an actual root coefficient succeeds
    with pytest.raises(AsaiRepError):
        pl.divide_by_linear(Fraction(7))


def test_companion_matches_charpoly():
    m = companion_frobenius(Fraction(5), Fraction(9))
    assert charpoly_reversed(m) == [1, -5, 9]


def test_asai_charpoly_eq_compares_lengths():
    pl = AsaiCharPoly([1, -6, 15, -150, 625])
    assert pl != [1, -6, 15]
    assert pl != [1, -6, 15, -150, 625, 0]
    assert pl == [1, -6, 15, -150, 625]
    assert pl == AsaiCharPoly([1, -6, 15, -150, 625])


def random_matrix(rng, n, field):
    """Dense-ish random matrix with zeros, over Q or Q(sqrt e)."""
    def entry():
        if rng.random() < 0.25:
            return field.zero()
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if field.e else 0
        return field.element(a, b)
    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("e", [None, 2, 5])
def test_charpoly_matches_leibniz_oracle(e):
    rng = random.Random(15 if e is None else e)
    field = CoefficientField(e)
    for n in (2, 3, 4):
        for _ in range(25):
            a = random_matrix(rng, n, field)
            got = charpoly_reversed(a)
            assert len(got) == n + 1
            assert all(x == y for x, y in zip(got, leibniz_charpoly_reversed(a)))
