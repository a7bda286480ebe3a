from fractions import Fraction

import mpmath
import pytest

from asailab.arith import is_prime
from asailab.characters import DirichletCharacter
from asailab.coeffs import CoefficientField
from asailab.eigenform import HilbertEigenform, Weight
from asailab.padic import (DIGITS, InterpFactor, NEZFailure, OrdinaryData, PadicError,
                           PadicNumber, check_NEZ, gauss_sum, gauss_sum_inverse,
                           hensel_sqrt, hensel_unit_root, pr_interp_factor,
                           stabilized_params, to_padic)
from asailab.quadfield import IdealRep, RealQuadraticField


def test_padic_number_arithmetic():
    x = to_padic(Fraction(50), 5, 10)
    assert x.val == 2 and x.unit == 2
    y = to_padic(Fraction(3, 25), 5, 10)
    assert y.val == -2
    assert (x * y).val == 0
    assert (x * y) * (x * y).inverse() == 1
    z = x + to_padic(Fraction(75), 5, 10)  # 50 + 75 = 125
    assert z.val == 3
    with pytest.raises(PadicError):
        _ = x - x  # exact cancellation exceeds stored precision


def test_equal_padic_numbers_hash_alike():
    # equal to the lesser precision 5^5, though the units differ mod 5^8
    x, y = PadicNumber(5, 0, 1, 5), PadicNumber(5, 0, 1 + 5 ** 6, 10)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1


def test_vp_and_valuation_of_value():
    assert to_padic(Fraction(250, 3), 5).val == 3
    assert to_padic(Fraction(3, 250), 5).val == -3
    cf = CoefficientField(2)
    # v(4 - sqrt2) at p = 7 via the smaller root sqrt2 -> 3: 4 - 3 = 1: valuation 0
    assert to_padic(cf.element(4, -1), 7).val == 0
    # its conjugate 4 + sqrt2 -> 4 + 3 = 0 mod 7: positive valuation
    assert to_padic(cf.element(4, 1), 7).val == 1


def test_hensel_sqrt():
    r = hensel_sqrt(2, 7, 12)
    assert (r * r - 2) % 7 ** 12 == 0
    assert hensel_sqrt(3, 5, 8) is None  # 3 is not a square mod 5
    assert r % 7 == 3   # the lift of the smaller root of 2 mod 7 (3 and 4)


def test_hensel_unit_root():
    # X^2 - 6X + 5: roots 1 and 5; unit root is 1
    root = hensel_unit_root(Fraction(6), Fraction(5), 5, 12)
    assert root == 1
    # tau(11) polynomial at p = 11
    tau11 = 534612
    root = hensel_unit_root(Fraction(tau11), Fraction(11 ** 11), 11, 20)
    f = (root.unit * root.unit - tau11 * root.unit + 11 ** 11) % (11 ** 20)
    assert f == 0
    with pytest.raises(PadicError):
        hensel_unit_root(Fraction(5), Fraction(5), 5, 10)  # trace not a unit


def test_ordinary_data_example():
    # alpha_p = 1+p, alpha_q = 1-p at p = 5
    od = OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(6), alpha_q=Fraction(-4))
    eig = dict(od.frobenius_eigenvalues())
    assert eig["alpha_p*alpha_q"] == -24
    assert eig["beta_p*beta_q"] == Fraction(25, -24)
    assert od.alpha_rational() == -24
    # beta identities: alpha_p * beta_p = p^{k+1} eps(p)
    assert od.alpha_p * od.beta_p == 5
    assert od.alpha_q * od.beta_q == 5
    with pytest.raises(PadicError):
        OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(5), alpha_q=Fraction(1))


@pytest.mark.parametrize("p,k,kp,ap,aq", [(5, 0, 0, 6, 1), (5, 2, 2, 7, -4),
                                          (7, 3, 1, Fraction(2, 3), 5),
                                          (5, 0, 2, 3, 2)])
def test_valuation_multiset(p, k, kp, ap, aq):
    od = OrdinaryData(p=p, k=k, kprime=kp, alpha_p=Fraction(ap), alpha_q=Fraction(aq))
    assert od.valuations() == sorted([0, k + 1, kp + 1, k + kp + 2])


def test_nez():
    # shortcut for k != k'
    ok, witness = check_NEZ(OrdinaryData(p=5, k=1, kprime=0,
                                         alpha_p=Fraction(2), alpha_q=Fraction(3)))
    assert ok and witness is None
    # alpha_p = alpha_q makes alpha_p beta_q = p^{k'+1}: a literal power of p
    bad = OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(2), alpha_q=Fraction(2))
    ok, witness = check_NEZ(bad)
    assert not ok and witness in ("alpha_p*beta_q", "beta_p*alpha_q")
    # generic unit ratio passes
    good = OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(2), alpha_q=Fraction(3))
    assert check_NEZ(good)[0]


def test_pr_interp_factor_fixtures():
    fac = pr_interp_factor(Fraction(2), 0, 0, p=5, kprime=0)
    assert fac.scalar == Fraction(5, 6)
    assert fac.tag == "log" and fac.tag_constant == 1
    # boundary j = k' + 1: exp* with 0! = 1
    fac2 = pr_interp_factor(Fraction(2), 1, 0, p=5, kprime=0)
    assert fac2.tag == "exp*" and fac2.tag_constant == 1
    # tag constant (-1)^{k'-j}/(k'-j)! at k' = 2, j = 0
    fac3 = pr_interp_factor(Fraction(2), 0, 0, p=5, kprime=2)
    assert fac3.tag_constant == Fraction(1, 2)


def test_pr_interp_factor_r1_gauss():
    eta = [c for c in DirichletCharacter.all_characters(5) if c.order == 2][0]
    fac = pr_interp_factor(Fraction(2), 0, 1, eta, p=5, kprime=0)
    # prefactor (5/2) G(eta^{-1})^{-1}; |G| = sqrt(5)
    assert fac.scalar == Fraction(5, 2)
    assert abs(abs(fac.numeric()) - 2.5 / mpmath.sqrt(5)) < 1e-10
    with pytest.raises(PadicError):
        pr_interp_factor(Fraction(2), 0, 1, None, p=5, kprime=0)
    with pytest.raises(PadicError):
        pr_interp_factor(Fraction(2), 0, 2, eta, p=5, kprime=0)  # modulus mismatch


def test_pr_interp_factor_is_its_scalar_data():
    # at r = 1 the factor holds its scalar, the inverse Gauss sum and its tag,
    # and nothing that no report reads
    eta = [c for c in DirichletCharacter.all_characters(5) if c.order == 2][0]
    ginv = gauss_sum_inverse(eta.inverse())
    assert pr_interp_factor(Fraction(2), 0, 1, eta, p=5, kprime=0) == \
        InterpFactor(0, 1, eta, Fraction(5, 2), ginv, "log", Fraction(1))


def test_pr_interp_factor_nez_gate():
    bad = OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(2), alpha_q=Fraction(2))
    with pytest.raises(NEZFailure):
        pr_interp_factor(bad, 0, 0)
    good = OrdinaryData(p=5, k=0, kprime=0, alpha_p=Fraction(2), alpha_q=Fraction(3))
    fac = pr_interp_factor(good, 0, 0)
    assert fac.scalar != 0


def test_gauss_sums():
    # trivial character mod 5: G = -1 exactly
    triv = DirichletCharacter(5, [0])
    assert gauss_sum(triv) == -1
    # quadratic mod 5: G = sqrt 5 numerically (even character)
    quad = [c for c in DirichletCharacter.all_characters(5) if c.order == 2][0]
    g = gauss_sum(quad)
    assert abs(g.to_mpc() - mpmath.sqrt(5)) < 1e-12
    assert (g * g.conjugate()).rational_value() == 5
    # primitive norms |G|^2 = p^r for r <= 2
    for p, r in ((5, 1), (5, 2), (3, 2), (7, 1)):
        for eta in DirichletCharacter.all_characters(p ** r):
            if eta.is_primitive():
                g = gauss_sum(eta)
                assert (g * g.conjugate()).rational_value() == p ** r
    with pytest.raises(PadicError, match="r >= 1"):
        gauss_sum(DirichletCharacter(1, []))


def test_gauss_sum_inverse():
    quad = [c for c in DirichletCharacter.all_characters(5) if c.order == 2][0]
    g = gauss_sum(quad)
    assert (g * g.conjugate()).rational_value() == 5
    assert (gauss_sum_inverse(quad) * g).rational_value() == 1
    # imprimitive character mod 25 induced from mod 5 has vanishing Gauss sum
    lifted = [c for c in DirichletCharacter.all_characters(25)
              if c.order == 2 and not c.is_primitive()]
    if lifted:
        with pytest.raises(PadicError):
            gauss_sum_inverse(lifted[0])


def test_stabilized_params_base_change(bc_form_4000):
    # p = 11 splits in Q(sqrt 5); the base-change form is ordinary there and
    # both unit roots are the Hensel root of X^2 - tau(11) X + 11^11
    data = stabilized_params(bc_form_4000, 11)
    oracle = hensel_unit_root(Fraction(534612), Fraction(11 ** 11), 11, DIGITS)
    assert data.alpha_p == oracle and data.alpha_q == oracle
    assert data.valuations() == [0, 11, 11, 22]
    # base-change forms sit in the exceptional equal case: (NEZ) fails
    ok, witness = check_NEZ(data)
    assert not ok and witness
    with pytest.raises(PadicError):
        stabilized_params(bc_form_4000, 3)  # 3 is inert


def test_stabilized_params_m_choice(bc_form_4000):
    # M_p is the alpha_P beta_Pbar quotient; a base change sits in the equal
    # case alpha_P = alpha_Pbar, where beta_P alpha_Pbar is the same number
    data = stabilized_params(bc_form_4000, 11)
    assert data.m_p_eigenvalue() == data.alpha_p * data.beta_q
    assert data.m_p_eigenvalue() == data.beta_p * data.alpha_q == 11 ** 11


def test_to_padic_quadratic():
    cf = CoefficientField(2)
    x = to_padic(cf.element(1, 1), 7, 10)  # 1 + sqrt2 -> 4 mod 7
    assert x.val == 0 and x.unit % 7 == 4
    with pytest.raises(PadicError):
        to_padic(cf.element(0, 1), 2, 10)  # p = 2 unsupported


def test_to_padic_unit_is_right_to_the_stated_precision():
    # 4 + sqrt2 under sqrt2 -> the lift of 3 mod 7 has valuation 1; its unit
    # mod 7^5 is that of the value read to 12 digits, 12709173136
    x = to_padic(CoefficientField(2).element(4, 1), 7, 5)
    assert x.val == 1 and x.prec == 5 and x.unit == 12709173136 % 7 ** 5


def test_exact_operand_takes_the_padic_precision_in_either_order():
    exact, padic = Fraction(2), to_padic(Fraction(7, 3), 5, 40)
    for ap, aq in ((exact, padic), (padic, exact)):
        data = OrdinaryData(p=5, k=0, kprime=0, alpha_p=ap, alpha_q=aq)
        assert data.alpha_rational().prec == 40
        assert data.alpha_rational() == to_padic(Fraction(14, 3), 5, 40)
    # 1 + sqrt2 at p = 7 (2 = 3^2 mod 7) enters through to_padic on either side
    x = CoefficientField(2).element(1, 1)
    y = to_padic(Fraction(2), 7, 12)
    assert y * x == x * y == to_padic(x, 7, 12) * 2
    assert (y * x).prec == 12 and (x / y).prec == 12


def test_padic_power_and_foreign_operands():
    x = to_padic(Fraction(10, 3), 5, 8)
    assert x ** 3 == x * x * x and (x ** 3).val == 3
    assert x ** -2 == (x * x).inverse() and x ** 0 == 1
    assert x.__eq__("1") is NotImplemented and x != "1"
    with pytest.raises(PadicError):
        to_padic(1.5, 5, 8)
    with pytest.raises(PadicError, match="zero has no p-adic unit decomposition"):
        to_padic(Fraction(0), 5, 8)
    with pytest.raises(PadicError):
        x * to_padic(Fraction(2), 7, 8)  # mixed primes


def test_hensel_sqrt_matches_the_scan_of_its_smaller_root():
    from oracles import scan_sqrt_lift
    for p in range(3, 400, 2):
        if is_prime(p):
            for e in range(1, p):
                assert hensel_sqrt(e, p, 3) == scan_sqrt_lift(e, p, 3), (e, p)


def test_hensel_sqrt_at_a_large_prime():
    p = 1_000_000_007
    r = hensel_sqrt(3, p, 5)
    assert r is not None and (r * r - 3) % p ** 5 == 0 and r % p < p - r % p


def test_hensel_unit_root_checks_padic_traces_too():
    five = to_padic(Fraction(5), 5, 10)
    with pytest.raises(PadicError):
        hensel_unit_root(five, Fraction(5), 5, 10)  # trace not a unit
    six = to_padic(Fraction(6), 5, 10)
    with pytest.raises(PadicError):
        hensel_unit_root(six, Fraction(2), 5, 10)  # v(const) = 0
    root = hensel_unit_root(to_padic(Fraction(6), 5, 6), 5, 5, 12)
    assert root.prec == 6 and root == 1


def test_stabilized_params_with_a_padic_trace():
    # Q(sqrt 2) coefficients over Q(sqrt 5): lambda = 1 + sqrt2, 3 - sqrt2 at
    # the primes above 31, weight (2, 2, 0, 0); mu enters as a 31-adic number
    field, cf, p, prec = RealQuadraticField(5), CoefficientField(2), 31, DIGITS
    lams = (cf.element(1, 1), cf.element(3, -1))
    eig = {P.hnf(): lam for P, lam in zip(field.primes_above(p), lams)}
    form = HilbertEigenform(field, Weight(2, 2, 0, 0), IdealRep(field, 1, 0, 1), cf, eig)
    data = stabilized_params(form, p)
    for alpha, lam in zip((data.alpha_p, data.alpha_q), lams):
        mu = to_padic(lam, p, prec)
        assert alpha.prec == prec and alpha.val == 0
        assert (alpha.unit ** 2 - mu.unit * alpha.unit + p) % p ** prec == 0
    assert data.valuations() == [0, 1, 1, 2]
    assert check_NEZ(data) == (True, None)

