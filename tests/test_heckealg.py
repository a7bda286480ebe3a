import random
from fractions import Fraction

import pytest

from asailab.acceptance import _random_expression
from asailab.heckealg import (HeckeAlgError, HeckePolynomial, PrimeLabel, R, S, T, X,
                              _rewrite_power, asai_euler_symbolic, diamond, inert_label,
                              normalize, norm_relation_symbolic, sigma, split_labels,
                              verify_split_x2_identity)
from oracles import hand_norm_relation_inert_000


def fixed_point_normalize(expr):
    """The former normal form: rewrite every generator power, multiply the
    pieces with the plain product and repeat until nothing changes (a product
    can recreate T(u)^2 for a unit u, which the next pass rewrites)."""
    cur = expr
    for _ in range(4):
        nxt = HeckePolynomial()
        for mono, c in cur.terms.items():
            piece = HeckePolynomial.constant(c)
            for gen, e in mono:
                piece = piece * HeckePolynomial(dict(_rewrite_power(gen, e)))
            nxt = nxt + piece
        if nxt == cur:
            return nxt
        cur = nxt
    raise AssertionError("rewriting failed to stabilise")


def test_coprime_product_stays():
    lam, lambar = split_labels(11)
    expr = T(lam) * T(lambar)
    assert normalize(expr) == expr  # already normal: no rule applies


def test_prime_square_rewrite():
    lam, lambar = split_labels(11)
    got = normalize(T({lam: 2}))
    want = (T(lam) ** 2 - 11 * diamond(lam) * R(lam)).normalize()
    assert got == want


def test_unit_square_rewrite():
    u = PrimeLabel("u", 1, unit=True)
    assert normalize(T({u: 2})) == normalize(S(u))
    assert normalize(T(u) * T(u)) == normalize(S(u))
    # odd powers keep one T(u)
    got = normalize(T({u: 3}))
    assert got == (diamond(u) * R(u) * T(u)).normalize()


def test_s_eliminated_and_multiplicative():
    lam, lambar = split_labels(7)
    got = normalize(S({lam: 1, lambar: 1}))
    want = diamond(lam) * R(lam) * diamond(lambar) * R(lambar)
    assert got == want.normalize()


def test_normalize_idempotent_random():
    rng = random.Random(99)
    labels = [PrimeLabel("a", 5), PrimeLabel("b", 13), PrimeLabel("u", 1, unit=True)]
    for _ in range(200):
        expr = HeckePolynomial.constant(rng.randint(-5, 5))
        for _ in range(rng.randint(1, 5)):
            ctor = rng.choice([T, S, diamond, R])
            expr = expr * ctor({rng.choice(labels): rng.randint(1, 2)})
        n1 = normalize(expr)
        assert normalize(n1) == n1


def test_t_cube_argument_rejected():
    lab = PrimeLabel("a", 5)
    with pytest.raises(HeckeAlgError):
        normalize(T({lab: 3}))


def test_mixed_diamond_forms_multiply_and_print():
    lab = PrimeLabel("a", 5)
    prod = diamond(lab) * diamond(lab).normalize()
    assert repr(prod) == "D(a)*D(a)"
    assert normalize(prod) == (diamond(lab) ** 2).normalize()


def test_invertibility_rules():
    lab = PrimeLabel("a", 5)
    assert normalize(diamond({lab: -1}) * diamond(lab)) == HeckePolynomial.constant(1)
    with pytest.raises(HeckeAlgError):
        _ = diamond(lab) * HeckePolynomial.generator("T", ((lab, 1),), -1)


@pytest.mark.parametrize("ell", [11, 19])
def test_split_x2_identity_examples(ell):
    lam, lambar = split_labels(ell)
    assert verify_split_x2_identity(lam, lambar)


def test_split_x2_identity_rejects_inert_style_input():
    q = inert_label(3)
    with pytest.raises(HeckeAlgError):
        verify_split_x2_identity(q, q)


def test_asai_euler_symbolic_inert():
    # at T = t, S = s: (1 - t X + 9 s X^2)(1 - 9 s X^2)
    p = asai_euler_symbolic(3, "inert", inert_label(3))
    t, s = Fraction(2), Fraction(3)
    coeffs = p.specialize({"q3": t}, {"q3": s})
    # X^2 coefficient cancels for the inert shape
    assert coeffs == {0: 1, 1: -t, 3: 9 * s * t, 4: -81 * s * s}


def test_asai_euler_symbolic_split():
    # the X^3 coefficient is -121 S(l) T(l) with T(l) = T(lam) T(lambar)
    lam, lambar = split_labels(11)
    p = asai_euler_symbolic(11, "split", (lam, lambar))
    t_values = {lam.name: Fraction(2), lambar.name: Fraction(3)}
    s_values = {lam.name: Fraction(5), lambar.name: Fraction(7)}
    assert p.specialize(t_values, s_values)[3] == -121 * 35 * 6


def test_asai_euler_symbolic_ramified_rejected():
    with pytest.raises(HeckeAlgError):
        asai_euler_symbolic(5, "ramified", inert_label(5))


def test_norm_relation_sigma_degrees():
    nr = norm_relation_symbolic(3, 0, 0, 0, "inert", inert_label(3))
    assert sorted(nr.sigma_decomposition()) == [-3, -2, -1, 0, 1]


def test_norm_relation_matches_hand_expansion():
    ell = 3
    lab = inert_label(ell)
    nr = norm_relation_symbolic(ell, 0, 0, 0, "inert", lab)
    fixture = hand_norm_relation_inert_000(ell)
    dec = nr.sigma_decomposition()
    assert set(dec) == set(fixture)
    for deg, parts in fixture.items():
        want = HeckePolynomial()
        for (t_deg, s_deg), coeff in parts.items():
            term = HeckePolynomial.constant(coeff)
            if t_deg:
                term = term * T(lab) ** t_deg
            if s_deg:
                term = term * S(lab) ** s_deg
            want = want + term
        assert dec[deg] == want.normalize()


def test_norm_relation_kill_hecke_terms():
    # substituting S -> 0, T -> 0 leaves l^j sigma (l-1) - l^{1+j} sigma
    for ell, j in ((3, 0), (7, 1)):
        nr = norm_relation_symbolic(ell, j, 2, 2, "inert", inert_label(ell))
        lab_name = f"q{ell}"
        got = sum(part.specialize({lab_name: Fraction(0)}, {lab_name: Fraction(0)}).get(0, 0)
                  for part in nr.sigma_decomposition().values())
        assert got == Fraction(ell ** j) * (ell - 1) - Fraction(ell ** (1 + j))


def test_norm_relation_j_range():
    with pytest.raises(HeckeAlgError):
        norm_relation_symbolic(3, 1, 0, 0, "inert", inert_label(3))


def test_confluence_small():
    rng = random.Random(5)
    labels = [PrimeLabel("a", 7), PrimeLabel("b", 11), PrimeLabel("u", 1, unit=True)]
    for _ in range(150):
        exprs = []
        for _ in range(2):
            e = HeckePolynomial.constant(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)):
                ctor = rng.choice([T, S, diamond, R])
                e = e * (ctor({rng.choice(labels): rng.randint(1, 2)})
                         + rng.randint(-2, 2))
            exprs.append(e)
        e1, e2 = exprs
        assert normalize(e1 * e2) == normalize(normalize(e1) * normalize(e2))


def test_specialize_requires_pairing():
    lab = PrimeLabel("a", 5)
    poly = (diamond(lab) * R(lab) * T(lab)).normalize()
    out = poly.specialize({"a": Fraction(3)}, {"a": Fraction(2)})
    assert out == {0: Fraction(6)}
    unpaired = diamond(lab).normalize()
    with pytest.raises(HeckeAlgError):
        unpaired.specialize({}, {})


def test_sigma_laurent():
    e = sigma(3, -2) * sigma(3, 5)
    dec = e.normalize().sigma_decomposition()
    assert list(dec) == [3]


def test_substitute_x():
    p = (HeckePolynomial.constant(1) - T(inert_label(3)) * X()).normalize()
    q = p.substitute_X(Fraction(1, 3) * sigma(3, -1)).normalize()
    dec = q.sigma_decomposition()
    assert set(dec) == {0, -1}


def test_one_pass_normalize_matches_fixed_point():
    rng = random.Random(1730)
    labels = [PrimeLabel("a", 7), PrimeLabel("b", 11), PrimeLabel("c", 49),
              PrimeLabel("u", 1, unit=True), PrimeLabel("v", 1, unit=True)]
    for _ in range(150):
        e1 = _random_expression(rng, labels)
        e2 = _random_expression(rng, labels)
        for expr in (e1, e1 * e2, normalize(e1) * normalize(e2)):
            assert normalize(expr) == fixed_point_normalize(expr)


def test_normalize_shares_no_state_with_callers():
    u, a = PrimeLabel("u", 1, unit=True), PrimeLabel("a", 7)
    for expr in (T({a: 2}), T(u) * T(u) * T({a: 2}), S({a: 1, u: 1}) + 3):
        want = dict(normalize(expr).terms)
        got = normalize(expr)
        for mono in got.terms:
            got.terms[mono] += 1
        got.terms[()] = Fraction(7)
        assert normalize(expr).terms == want


def test_integer_products_keep_int_coefficients():
    # criterion 3's random products normalise to int coefficients only
    rng = random.Random(1731)
    labels = [PrimeLabel("a", 7), PrimeLabel("b", 11), PrimeLabel("c", 49),
              PrimeLabel("u", 1, unit=True)]
    for _ in range(100):
        expr = normalize(_random_expression(rng, labels) * _random_expression(rng, labels))
        assert all(type(c) is int for c in expr.terms.values())
    # Fraction scalars give the same polynomial, hash and print
    a = labels[0]
    by_int = normalize(3 * T({a: 2}) - 2 * S(a) * X() + 5)
    by_fraction = normalize(Fraction(3) * T({a: 2}) - Fraction(2) * S(a) * X()
                            + HeckePolynomial.constant(Fraction(10, 2)))
    assert any(type(c) is Fraction for c in by_fraction.terms.values())
    assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
    assert repr(by_int) == repr(by_fraction)
    # the norm relation keeps its non-integral coefficients, 1/l^(1+j) among them
    coeffs = norm_relation_symbolic(3, 1, 2, 2, "inert", inert_label(3)).terms.values()
    assert Fraction(1, 3 ** 2) in coeffs and Fraction(-2, 3) in coeffs
    assert all(type(c) is Fraction for c in coeffs if c.denominator > 1)
