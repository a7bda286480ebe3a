import random
from fractions import Fraction

import pytest

from asailab.arith import primes_up_to
from asailab.asairep import (AsaiCharPoly, AsaiRepError, GroupRingElement,
                             HypothesisError, asai_charpoly,
                             asai_charpoly_via_induction, charpoly_reversed,
                             companion_frobenius, euler_system_norm_factor,
                             tensor_induce_inert, tensor_induce_split,
                             verify_proj_Pl)
from asailab.characters import DirichletCharacter
from asailab.coeffs import CoefficientField
from asailab.eigenform import HilbertEigenform, Weight
from asailab.heckealg import split_labels, inert_label, asai_euler_symbolic
from asailab.quadfield import RealQuadraticField, splitting_type
from oracles import (kron_product_asai_roots, leibniz_charpoly_reversed, mat_mul,
                     norm_factor_by_group_ring)

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


def pairs(rows):
    """An integer matrix as entries (x, 0) of Z[sqrt(e)]."""
    return [[(x, 0) for x in row] for row in rows]


def elements(rows, field):
    """A matrix of pairs (x, y) as the field elements x + y sqrt(e)."""
    return [[field.element(x, y) for x, y in row] for row in rows]


def test_tensor_induce_split_identity_and_diag():
    i2 = pairs([[1, 0], [0, 1]])
    assert tensor_induce_split(i2, i2, 0) == pairs(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    a, b, ap, bp = 2, 3, 5, 7
    got = tensor_induce_split(pairs([[a, 0], [0, b]]), pairs([[ap, 0], [0, bp]]), 0)
    # basis (e1 x e1, e2 x e1, e1 x e2, e2 x e2): diag(a a', b a', a b', b b')
    assert [got[i][i] for i in range(4)] == [(a * ap, 0), (b * ap, 0), (a * bp, 0), (b * bp, 0)]
    # over Z[sqrt 2]: (1 + sqrt 2)(3 - sqrt 2) = 1 + 2 sqrt 2
    one_by_one = tensor_induce_split([[(1, 1), (0, 0)], [(0, 0), (0, 0)]],
                                     [[(3, -1), (0, 0)], [(0, 0), (0, 0)]], 2)
    assert one_by_one[0][0] == (1, 2)


def test_tensor_induce_inert_swap_and_charpoly():
    swap = tensor_induce_inert(pairs([[1, 0], [0, 1]]))
    # e1 x e2 <-> e2 x e1; char poly (1-X)^3 (1+X)
    assert charpoly_reversed(swap, 0) == pairs([[1, -2, 0, 2, -1]])[0]
    a, b = 3, -2
    diag = tensor_induce_inert(pairs([[a, 0], [0, b]]))
    # (1 - aX)(1 - bX)(1 - ab X^2), eigenvalues {a, b, +-sqrt(ab)}
    want = [1, -(a + b), a * b - a * b, (a * b) * (a + b), -(a * b) ** 2]
    assert charpoly_reversed(diag, 0) == pairs([want])[0]


def random_pair_matrix(rng, n, e, lo=-6, hi=6):
    """An n x n matrix over Z[sqrt(e)] with about a quarter of its entries zero."""
    def entry():
        if rng.random() < 0.25:
            return 0, 0
        return rng.randint(lo, hi), rng.randint(lo, hi) if e else 0
    return [[entry() for _ in range(n)] for _ in range(n)]


def test_tensor_induce_inert_squares_to_split():
    rng = random.Random(11)
    for e in (None, 2):
        field = CoefficientField(e)
        for _ in range(100):
            m = random_pair_matrix(rng, 2, e)
            inert = elements(tensor_induce_inert(m), field)
            assert mat_mul(inert, inert) == elements(tensor_induce_split(m, m, e or 0), field)


def test_split_charpoly_conjugation_invariance():
    rng = random.Random(12)
    for _ in range(100):
        m1 = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        m2 = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        base = charpoly_reversed(tensor_induce_split(pairs(m1), pairs(m2), 0), 0)
        for m, other, first in ((m1, m2, True), (m2, m1, False)):
            g = [[1, rng.randint(-3, 3)], [0, 1]]
            conj = mat_mul(mat_mul(g, m), [[1, -g[0][1]], [0, 1]])
            pair = (conj, other) if first else (other, conj)
            assert charpoly_reversed(tensor_induce_split(*map(pairs, pair), 0), 0) == base


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
        st = splitting_type(field, ell)
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
        st = splitting_type(field, ell)
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
        st = splitting_type(form.field, ell)
        tvals, svals = {}, {}
        if st.is_split:
            labels = split_labels(ell)
            sym = asai_euler_symbolic(ell, "split", labels)
            for lab, p in zip(labels, st.primes):
                tvals[lab.name] = form.lambda_of(p).a
                svals[lab.name] = Fraction(ell ** (form.weight.w - 2))
        else:
            lab = inert_label(ell)
            sym = asai_euler_symbolic(ell, "inert", lab)
            p = st.primes[0]
            tvals[lab.name] = form.lambda_of(p).a
            svals[lab.name] = Fraction(ell ** (2 * (form.weight.w - 2)))
        spec = sym.specialize(tvals, svals)
        pl = asai_charpoly(form, ell)
        for deg in range(5):
            assert spec.get(deg, Fraction(0)) == pl.coeffs[deg]


def test_group_ring_basics():
    g = GroupRingElement.sigma(5, 3, 1)
    assert g == GroupRingElement(5, {3: Fraction(1)})
    assert GroupRingElement.sigma(5, 3, 2) == GroupRingElement(5, {4: Fraction(1)})
    assert GroupRingElement.sigma(5, 3, -1) == GroupRingElement(5, {2: Fraction(1)})
    assert (g + GroupRingElement.sigma(5, 8, 1)) * Fraction(1, 2) == g
    assert (g + g * -1).is_zero()
    with pytest.raises(AsaiRepError):
        GroupRingElement(10, {5: Fraction(1)})  # not a unit
    with pytest.raises(AsaiRepError):
        g + GroupRingElement.sigma(7, 3, 1)
    elt = GroupRingElement(5, {1: Fraction(2), 3: Fraction(-2)})
    chi0 = DirichletCharacter(5, [0])
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


def test_asai_charpoly_class_constraints():
    with pytest.raises(AsaiRepError):
        AsaiCharPoly([1, 2, 3], "split")
    with pytest.raises(AsaiRepError):
        AsaiCharPoly([2, 0, 0, 0, 0], "split")
    # (1 - 5X)(1 - X + 7X^2 - 2X^3): (1 - cX) divides it iff it vanishes at 1/c
    pl = AsaiCharPoly([Fraction(1), Fraction(-6), Fraction(12),
                       Fraction(-37), Fraction(10)], "split")
    assert pl(Fraction(1, 5)) == 0
    assert pl(Fraction(1, 7)) != 0


def test_companion_matches_charpoly():
    den, m = companion_frobenius((5, 0, 1), (9, 0, 1))
    assert den == 1 and charpoly_reversed(m, 0) == [(1, 0), (-5, 0), (9, 0)]
    # trace 5/2 and det 3 cleared to den 2: det(1 - X N) = 1 - 5X + 12X^2
    den, m = companion_frobenius((5, 0, 2), (3, 0, 1))
    assert den == 2 and charpoly_reversed(m, 0) == [(1, 0), (-5, 0), (12, 0)]
    # trace 1 + sqrt(2)/3 and det -sqrt(2)/2 over den 6: N = [[0, 3 sqrt 2], [6, 6 + 2 sqrt 2]]
    den, m = companion_frobenius((3, 1, 3), (0, -1, 2))
    assert den == 6 and charpoly_reversed(m, 2) == [(1, 0), (-6, -2), (0, -18)]


def test_asai_charpoly_eq_compares_lengths():
    pl = AsaiCharPoly([1, -6, 15, -150, 625], "split")
    assert pl != [1, -6, 15]
    assert pl != [1, -6, 15, -150, 625, 0]
    assert pl == [1, -6, 15, -150, 625]
    assert pl == AsaiCharPoly([1, -6, 15, -150, 625], "inert")


@pytest.mark.parametrize("e", [None, 2, 5])
def test_charpoly_matches_leibniz_oracle(e):
    rng = random.Random(15 if e is None else e)
    field = CoefficientField(e)
    for n in (2, 3, 4):
        for _ in range(25):
            a = random_pair_matrix(rng, n, e, -9, 9)
            got = charpoly_reversed(a, e or 0)
            assert len(got) == n + 1
            assert [field.element(x, y) for x, y in got] == \
                leibniz_charpoly_reversed(elements(a, field))


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_norm_factor_matches_group_ring_products(d):
    # every good l < 100, the three local-factors weights, every j and m <= 15,
    # lambda(P) over Q and over Q(sqrt e), eps(P) = +-1 or irrational
    rng = random.Random(16 + d)
    field = RealQuadraticField(d)
    for ell in primes_up_to(100):
        if field.disc % ell == 0:
            continue
        primes = splitting_type(field, ell).primes
        for w in (Weight(2, 2, 0, 0), Weight(4, 4, 0, 0), Weight(2, 2, 1, 1)):
            for e in (None, rng.choice([2, 3, 5, 7])):
                cf = CoefficientField(e)
                irr = (lambda: rng.randint(-20, 20)) if e else (lambda: 0)
                eps = [cf.element(1), cf.element(-1)]
                if e:
                    eps.append(cf.element(Fraction(1, 3), 1))
                eig = {p.hnf(): cf.element(Fraction(rng.randint(-50, 50), rng.randint(1, 3)),
                                           irr()) for p in primes}
                neb = {p.hnf(): rng.choice(eps) for p in primes}
                form = HilbertEigenform(field, w, field.maximal_order(), cf, eig, neb)
                for j in range(w.k + 1):
                    for m in range(1, 16):
                        if m % ell == 0:
                            continue
                        try:
                            got = euler_system_norm_factor(form, ell, j, m)
                        except HypothesisError:
                            assert len(primes) == 2  # split, not narrowly principal
                            continue
                        want = norm_factor_by_group_ring(form, ell, j, m)
                        assert got == want and repr(got) == repr(want)
