"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value is (sum num[i] zeta_M^i) / den with integer num reduced modulo the
M-th cyclotomic polynomial Phi_M, den > 0 and gcd(den, *num) = 1, so equal
values have equal (num, den).  Phi_M is the Moebius product
prod_{q | M squarefree} (x^{M/q} - 1)^{mu(q)}, taken in integer power series
up to degree phi(M).  Complex embeddings use zeta_M = exp(2*pi*i/M).
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath

from .arith import factorise
from .characters import _root_value
from .precision import mp_context, working_precision


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficient tuple (low degree first) of Phi_m over Z."""
    factors = factorise(m)
    deg = math.prod((p - 1) * p ** (e - 1) for p, e in factors)
    poly = [1] + [0] * deg
    # times (x^k - 1)^mu(q) in Z[[x]] mod x^(deg + 1), k = m/q: each step maps
    # p[i] to p[i - k] - p[i], top down to multiply, bottom up to divide
    for n in range(len(factors) + 1):
        for qs in combinations([p for p, _ in factors], n):
            k = m // math.prod(qs)
            for i in (range(deg + 1) if n % 2 else range(deg, -1, -1)):
                poly[i] = (poly[i - k] if i >= k else 0) - poly[i]
    return tuple(poly)


class CyclotomicValue:
    """Element of Q(zeta_M): integer coefficients num over one den, reduced mod Phi_M."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, num=(), den=1):
        """(sum num[i] zeta_M^i) / den for integers num (any length) and den != 0."""
        self.m = int(m)
        phi = cyclotomic_polynomial(self.m)
        deg = len(phi) - 1
        num = list(num) + [0] * (deg - len(num))
        terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
        for i in range(len(num) - 1, deg - 1, -1):
            c = num[i]
            if c:  # subtract c * x^(i - deg) * Phi_M (monic)
                for j, pc in terms:
                    num[i - deg + j] -= c * pc
        g = math.gcd(den, *num[:deg]) * (1 if den > 0 else -1)
        self.num = tuple(c // g for c in num[:deg])
        self.den = den // g

    @classmethod
    def from_exponents(cls, m, exponent_coeffs):
        """sum c_k zeta_M^k from {exponent: rational coeff}, exponents mod M."""
        coeffs = [(k % m, Fraction(c)) for k, c in exponent_coeffs.items()]
        den = math.lcm(1, *(c.denominator for _, c in coeffs))
        num = [0] * m
        for k, c in coeffs:
            num[k] += c.numerator * (den // c.denominator)
        return cls(m, num, den)

    def rational_value(self):
        """The value as a Fraction, if it is rational."""
        if any(self.num[1:]):
            raise ArithmeticError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __add__(self, other):
        other = self._coerce(other)
        return CyclotomicValue(self.m, [a * other.den + b * self.den
                                        for a, b in zip(self.num, other.num)],
                               self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicValue(self.m, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        prod = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        return CyclotomicValue(self.m, prod, self.den * other.den)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CyclotomicValue):
            if other.m != self.m:
                raise ArithmeticError("mixed cyclotomic conductors")
            return other
        other = Fraction(other)
        return CyclotomicValue(self.m, [other.numerator], other.denominator)

    def conjugate(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        num = [0] * self.m
        for i, c in enumerate(self.num):
            num[-i % self.m] += c
        return CyclotomicValue(self.m, num, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return isinstance(other, CyclotomicValue) and \
            (self.m, self.num, self.den) == (other.m, other.num, other.den)

    def __hash__(self):
        return hash((self.m, self.num, self.den))

    def __repr__(self):
        bits = [f"{Fraction(c, self.den)}*z^{i}" for i, c in enumerate(self.num) if c]
        return " + ".join(bits) if bits else "0"

    def to_mpc(self, prec=None):
        """The value at zeta_M, read from the table of `RootOfUnity.to_mpc`."""
        with mp_context(prec):
            z = _root_value(1, self.m, working_precision() if prec is None else prec)
            acc = mpmath.mpc(0)
            for c in reversed(self.num):
                acc = acc * z + c
            return acc / self.den
