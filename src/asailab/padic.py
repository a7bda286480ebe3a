"""Ordinary p-stabilisation parameters, the no-exceptional-zero test, and
Perrin-Riou interpolation factors with Gauss sums.

p-adic quantities are (valuation, unit) pairs with the unit carried to a
finite precision (DIGITS, 20 digits, by default); valuation bookkeeping is
exact.  An exact value (int, Fraction, QuadElt) enters p-adic arithmetic only
through `to_padic`, so a PadicNumber is an ordinary operand of + - * / ** and
==: an exact operand is read at the other operand's precision, and a product
of two p-adic numbers has the lesser precision, whatever the order.  The Iwasawa
algebra is never materialised: every interpolation statement is exercised
through (j, eta) specialisations.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .arith import is_prime, sqrt_mod
from .coeffs import QuadElt, to_mpf
from .cyclo import CyclotomicValue
from .quadfield import splitting_type

DIGITS = 20   # the p-adic precision of stabilisation data and of `to_padic`


class PadicError(ValueError):
    pass


class NEZFailure(PadicError):
    pass


def _vp_int(n, p):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber:
    """p^val * unit with the unit known mod p^prec."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p, val, unit, prec):
        self.p = int(p)
        self.prec = int(prec)
        mod = self.p ** self.prec
        unit = int(unit) % mod
        if unit % self.p == 0:
            raise PadicError("unit part divisible by p")
        self.val = int(val)
        self.unit = unit

    def __mul__(self, other):
        other = to_padic(other, self.p, self.prec)
        prec = min(self.prec, other.prec)
        mod = self.p ** prec
        return PadicNumber(self.p, self.val + other.val,
                           (self.unit * other.unit) % mod, prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** -n
        return PadicNumber(self.p, self.val * n, pow(self.unit, n, self.p ** self.prec),
                           self.prec)

    def inverse(self):
        mod = self.p ** self.prec
        return PadicNumber(self.p, -self.val, pow(self.unit, -1, mod), self.prec)

    def __truediv__(self, other):
        return self * to_padic(other, self.p, self.prec).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __add__(self, other):
        other = to_padic(other, self.p, self.prec)
        v = min(self.val, other.val)
        # both known mod p^{val + prec}
        known = min(self.val + self.prec, other.val + other.prec)
        mod = self.p ** (known - v)
        tot = (self.unit * self.p ** (self.val - v)
               + other.unit * self.p ** (other.val - v)) % mod
        if tot == 0:
            raise PadicError(f"cancellation exceeds precision p^{known}")
        shift = _vp_int(tot, self.p)
        return PadicNumber(self.p, v + shift, tot // self.p ** shift,
                           known - v - shift)

    __radd__ = __add__

    def __neg__(self):
        mod = self.p ** self.prec
        return PadicNumber(self.p, self.val, (-self.unit) % mod, self.prec)

    def __sub__(self, other):
        return self + (-to_padic(other, self.p, self.prec))

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        try:
            other = to_padic(other, self.p, self.prec)
        except PadicError:
            return NotImplemented
        if self.val != other.val:
            return False
        prec = min(self.prec, other.prec)
        mod = self.p ** prec
        return (self.unit - other.unit) % mod == 0

    def __hash__(self):
        # == fixes val and the unit mod p^min(prec), and every prec is >= 1
        return hash((self.p, self.val, self.unit % self.p))

    def __repr__(self):
        return f"{self.p}^{self.val} * ({self.unit} + O({self.p}^{self.prec}))"


def _lift_root(t, c, x0, p, prec):
    """The root of X^2 - t X + c mod p^prec that is x0 mod p, by Newton
    iteration; x0 must be a simple root mod p (2 x0 != t mod p)."""
    x, k = x0 % p, 1
    while k < prec:
        k = min(2 * k, prec)
        m = p ** k
        x = (x - (x * x - t * x + c) * pow(2 * x - t, -1, m)) % m
    return x


def hensel_sqrt(e, p, prec):
    """Square root of e mod p^prec (p odd, p not dividing e) lifting the
    smaller root in 1..p-1; None if e is a non-residue."""
    e = int(e) % p ** prec
    if p == 2:
        raise PadicError("p = 2 square roots unsupported")
    if e % p == 0:
        raise PadicError("need e a p-adic unit")
    if pow(e, (p - 1) // 2, p) != 1:
        return None
    r = sqrt_mod(e, p)
    return _lift_root(0, -e, min(r, p - r), p, prec)


def hensel_unit_root(trace, const, p, prec):
    """Unit root of X^2 - trace*X + const, for v(trace) = 0 < v(const).

    trace and const are exact or p-adic; the root is known to the lesser of
    prec and the precision of the trace.
    """
    t = to_padic(trace, p, prec)
    if t.val != 0:
        raise PadicError("not ordinary: trace is not a p-adic unit")
    c = 0
    if const != 0:
        c = to_padic(const, p, prec)
        if c.val < 1:
            raise PadicError("constant term must have positive valuation")
        c = c.unit * p ** c.val
    prec = min(prec, t.prec)
    return PadicNumber(p, 0, _lift_root(t.unit, c, t.unit, p, prec), prec)


def to_padic(value, p, prec=DIGITS):
    """The one way into p-adic arithmetic: an int, Fraction or QuadElt as a
    PadicNumber known mod p^prec (a PadicNumber passes through unchanged).

    A nonzero rational x is p^v u with v its exact valuation, counted in the
    numerator and the denominator, and u = x / p^v read mod p^prec; zero
    raises PadicError.  An irrational a + b sqrt(e) is read through sqrt(e) ->
    the Hensel lift of the smaller root mod p, taken to enough digits that the
    unit is right mod p^prec.  Anything else raises PadicError.
    """
    if isinstance(value, PadicNumber):
        if value.p != p:
            raise PadicError("mixed primes")
        return value
    if isinstance(value, QuadElt):
        if not value.y:
            value = value.a
        else:
            e = value.field.e
            if e % p == 0:
                raise PadicError(f"sqrt({e}) not a unit at {p}")
            # x + y sqrt(e) has valuation v <= v(x^2 - e y^2), so sqrt(e) read
            # mod p^(prec + v) gives its unit mod p^prec
            x, y = value.x, value.y
            r = hensel_sqrt(e, p, prec + _vp_int(x * x - e * y * y, p))
            if r is None:
                raise PadicError(f"{e} is not a square mod {p}; embedding undefined")
            value = Fraction(x + y * r, value.den)
            if value == 0:
                raise PadicError("value vanishes to working precision under the embedding")
    if not isinstance(value, (int, Fraction)):
        raise PadicError(f"cannot coerce {value!r} to a p-adic number")
    if value == 0:
        raise PadicError("zero has no p-adic unit decomposition")
    num, den = value.numerator, value.denominator
    v = _vp_int(num, p) - _vp_int(den, p)
    unit = num // p ** max(0, v) * pow(den // p ** max(0, -v), -1, p ** prec)
    return PadicNumber(p, v, unit, prec)


# -- ordinary stabilisation data ---------------------------------------------


def _check_prime(p):
    if not is_prime(p):
        raise PadicError(f"p = {p} is not prime")


@dataclass
class OrdinaryData:
    """alpha/beta parameters of an ordinary p-stabilised form, p split."""
    p: int
    k: int
    kprime: int
    alpha_p: object            # unit eigenvalue at the prime frak-p
    alpha_q: object            # unit eigenvalue at the conjugate prime
    eps_p: object = 1
    eps_q: object = 1
    notes: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        _check_prime(self.p)
        for name, val in (("alpha_p", self.alpha_p), ("alpha_q", self.alpha_q)):
            if to_padic(val, self.p).val != 0:
                raise PadicError(f"{name} is not a p-adic unit; form not ordinary")

    @property
    def beta_p(self):
        return Fraction(self.p) ** (self.k + 1) * self.eps_p / self.alpha_p

    @property
    def beta_q(self):
        return Fraction(self.p) ** (self.kprime + 1) * self.eps_q / self.alpha_q

    def alpha_rational(self):
        """alpha_p(F) = alpha_frak_p * alpha_frak_q."""
        return self.alpha_p * self.alpha_q

    def frobenius_eigenvalues(self):
        """[(name, value)] for the four crystalline Frobenius eigenvalues."""
        return [
            ("alpha_p*alpha_q", self.alpha_p * self.alpha_q),
            ("beta_p*alpha_q", self.beta_p * self.alpha_q),
            ("alpha_p*beta_q", self.alpha_p * self.beta_q),
            ("beta_p*beta_q", self.beta_p * self.beta_q),
        ]

    def m_p_eigenvalue(self):
        """alpha_frak-p * beta_frak-q, the eigenvalue on the 1-dimensional quotient M_p."""
        return self.alpha_p * self.beta_q

    def valuations(self):
        return sorted(to_padic(v, self.p).val for _, v in self.frobenius_eigenvalues())


def stabilized_params(form, p):
    """OrdinaryData for a split p, known to DIGITS p-adic digits.

    If p divides the level, the stored U-eigenvalues are used (exactly when the
    coefficient data is rational).  Otherwise the p-stabilisation is performed
    on the fly: alpha at each prime above p is the Hensel unit root of
    X^2 - mu X + p^{k(*)+1} eps, mu the normalised T-eigenvalue.
    """
    p = int(p)
    st = splitting_type(form.field, p)
    if not st.is_split:
        raise PadicError(f"p = {p} is not split in Q(sqrt({form.field.d}))")
    w = form.weight
    t_by_prime = (w.t1, w.t2)  # per-slot k enters through w.w - 1 - 2*t_slot
    values = []
    eps_vals = []
    stabilised_here = form.rational_level() % p != 0
    for slot, prime in enumerate(st.primes):
        t_slot = t_by_prime[slot]
        eps_v = form.eps_of(prime)
        eps_vals.append(eps_v)
        lam = form.lambda_of(prime) if stabilised_here else form.stored(prime)
        if lam is None:
            raise PadicError(f"U-eigenvalue missing at a prime above {p}")
        mu = Fraction(p) ** -t_slot * lam
        if stabilised_here:
            # const = p^{k_slot + 1} eps up to the t-normalisation
            const = Fraction(p) ** (w.w - 1 - 2 * t_slot) * eps_v
            alpha = hensel_unit_root(to_padic(mu, p), const, p, DIGITS)
        else:
            alpha = mu
            if to_padic(alpha, p).val != 0:
                raise PadicError(f"form is not ordinary at {p}")
        values.append(alpha)
    return OrdinaryData(p=p, k=w.k, kprime=w.kprime,
                        alpha_p=values[0], alpha_q=values[1],
                        eps_p=eps_vals[0], eps_q=eps_vals[1],
                        notes={"stabilised_on_the_fly": stabilised_here,
                               "t_normalisation": "alpha_frak = p^{-t} U(frak) per embedding"})


# -- (NEZ) ---------------------------------------------------------------------

def check_NEZ(data):
    """(holds?, witness): no Frobenius eigenvalue is +-p^m times a root of unity.

    Roots of unity in the (real) coefficient fields are +-1, so the test is
    whether eigenvalue / p^{v(eigenvalue)} equals +-1.  Shortcut: k != k'
    implies the valuations {0, k+1, k'+1, k+k'+2} are distinct from any
    integral power position only when units match, and (NEZ) is automatic.
    """
    if data.k != data.kprime:
        return True, None
    for name, val in data.frobenius_eigenvalues():
        unit = val / Fraction(data.p) ** to_padic(val, data.p).val
        if unit == 1 or unit == -1:
            return False, name
    return True, None


# -- Gauss sums ------------------------------------------------------------------

def gauss_sum(eta):
    """G(eta) = sum over a in (Z/p^r)^x of eta(a) zeta_{p^r}^a, exactly, p^r the
    modulus of eta.

    Returns a CyclotomicValue in Q(zeta_M), M = lcm(p^r, order of eta).
    """
    modulus = eta.modulus
    if modulus < 2:
        raise PadicError("Gauss sums need modulus p^r with r >= 1")
    order = eta.order
    m_root = modulus * order // math.gcd(modulus, order)
    terms = {}
    for a in range(1, modulus):
        if math.gcd(a, modulus) != 1:
            continue
        val = eta(a)
        expo = (val.e * (m_root // val.n) + a * (m_root // modulus)) % m_root
        terms[expo] = terms.get(expo, 0) + 1
    return CyclotomicValue.from_exponents(m_root, terms)


def gauss_sum_inverse(eta):
    """1/G(eta) via G * conj(G), exact; raises if the Gauss sum vanishes."""
    g = gauss_sum(eta)
    norm = (g * g.conjugate()).rational_value()
    if norm == 0:
        raise PadicError("Gauss sum vanishes (imprimitive character)")
    return g.conjugate() * Fraction(norm.denominator, norm.numerator)


# -- Perrin-Riou interpolation factors -------------------------------------------


@dataclass
class InterpFactor:
    """Scalar of the Perrin-Riou interpolation property at (j, eta)."""
    j: int
    r: int
    eta: object
    scalar: object                 # exact Fraction/QuadElt or PadicNumber
    gauss_inverse: object          # CyclotomicValue or None
    tag: str                       # 'log' or 'exp*'
    tag_constant: Fraction

    def numeric(self):
        import mpmath
        from .precision import mp_context
        with mp_context():
            if isinstance(self.scalar, PadicNumber):
                raise PadicError("p-adic scalar has no archimedean embedding")
            s = to_mpf(self.scalar)
            if self.gauss_inverse is not None:
                return s * self.gauss_inverse.to_mpc()
            return mpmath.mpc(s)


def pr_interp_factor(data, j, r, eta=None, p=None, kprime=None):
    """The interpolation scalar at twist j and conductor p^r character eta.

    r = 0:  (1 - p^j / A)(1 - A / p^{1+j})^{-1},  A = alpha_frak-p * beta_frak-q,
            requiring (NEZ).
    r >= 1: (p^{1+j} / A)^r * G(eta^{-1})^{-1}.
    Tagged 'log' with (-1)^{k'-j}/(k'-j)! for j <= k', else 'exp*' with
    (j-k'-1)!.

    data is either an OrdinaryData (A, p, k' read off it) or the eigenvalue A
    itself, in which case p and kprime must be supplied.
    """
    j, r = int(j), int(r)
    if isinstance(data, OrdinaryData):
        p, kp, a_val = data.p, data.kprime, data.m_p_eigenvalue()
        if r == 0:
            holds, witness = check_NEZ(data)
            if not holds:
                raise NEZFailure(f"(NEZ) fails at {witness}; r = 0 factor undefined")
    else:
        if p is None or kprime is None:
            raise PadicError("direct eigenvalue input needs p and kprime")
        _check_prime(p)
        kp, a_val = int(kprime), data
    if a_val == 0:
        raise PadicError("eigenvalue A = 0; both factors divide by A")
    if j <= kp:
        tag, tag_const = "log", Fraction((-1) ** (kp - j), math.factorial(kp - j))
    else:
        tag, tag_const = "exp*", Fraction(math.factorial(j - kp - 1))
    if r == 0:
        den = 1 - a_val / Fraction(p) ** (1 + j)
        if den == 0:
            raise NEZFailure(f"eigenvalue equals p^{1 + j}; r = 0 factor undefined")
        num = 1 - Fraction(p) ** j / a_val
        scalar = num / den
        return InterpFactor(j, 0, None, scalar, None, tag, tag_const)
    if eta is None:
        raise PadicError("r >= 1 needs a character eta of conductor p^r")
    if eta.modulus != p ** r:
        raise PadicError(f"eta modulus {eta.modulus} != {p}^{r}")
    ginv = gauss_sum_inverse(eta.inverse())
    ratio = Fraction(p) ** ((1 + j) * r) / a_val ** r
    return InterpFactor(j, r, eta, ratio, ginv, tag, tag_const)
