"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(e)).

One element class, QuadElt, serves the coefficient fields of eigenvalues
(CoefficientField) and the base fields of quadfield (RealQuadraticField, whose
radicand e is d).  A value a + b*sqrt(e) is stored as integer coordinates over
a common denominator; rational values may live over Q, whose e is None.
Numeric embeddings send sqrt(e) to the positive real square root.
"""

import math
from fractions import Fraction

import mpmath

from .precision import mp_context
from .arith import is_squarefree


class CoefficientError(ValueError):
    pass


def parse_rational(text):
    """Parse the exact-rational wire syntax 'p/q' (or 'p')."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise CoefficientError(f"expected exact rational, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CoefficientError(f"bad rational literal {text!r}") from exc


def format_rational(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class CoefficientField:
    """Descriptor for Q ('Q') or a real quadratic extension ('Qsqrt', e)."""

    __slots__ = ("e",)

    def __init__(self, e=None):
        if e is not None:
            e = int(e)
            if e <= 1 or not is_squarefree(e):
                raise CoefficientError(f"Qsqrt extension needs squarefree e > 1, got {e}")
        self.e = e

    @property
    def is_rational(self):
        return self.e is None

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.e == other.e

    def __hash__(self):
        return hash(("CoefficientField", self.e))

    def __repr__(self):
        return "Q" if self.e is None else f"Q(sqrt({self.e}))"

    def element(self, a, b=0):
        return QuadElt(a, b, self)

    def one(self):
        return self.element(1)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "type" not in obj:
            raise CoefficientError("coefficient_field must be {'type': 'Q'|'Qsqrt', ...}")
        if obj["type"] == "Q":
            return cls(None)
        if obj["type"] == "Qsqrt":
            if "e" not in obj:
                raise CoefficientError("Qsqrt coefficient field needs 'e'")
            return cls(obj["e"])
        raise CoefficientError(f"unknown coefficient field type {obj['type']!r}")

    def to_json(self):
        if self.e is None:
            return {"type": "Q"}
        return {"type": "Qsqrt", "e": self.e}

    def parse_value(self, obj):
        """Parse the schema value syntax: 'p/q' or {'a': 'p/q', 'b': 'p/q'}."""
        if isinstance(obj, dict):
            if self.is_rational and parse_rational(obj.get("b", "0")) != 0:
                raise CoefficientError("irrational value declared over Q")
            return self.element(parse_rational(obj.get("a", "0")),
                                parse_rational(obj.get("b", "0")))
        return self.element(parse_rational(obj))


class QuadElt:
    """(x + y*sqrt(e))/den with integers x, y, den over a field whose radicand
    is field.e (None over Q).  The coordinates are canonical: den > 0 and
    gcd(x, y, den) = 1, so equal values have equal coordinates.  a and b are
    the rational coordinates in the basis (1, sqrt(e)); a product of two
    rational values (y == 0) multiplies the rational parts alone."""

    __slots__ = ("x", "y", "den", "field")

    def __init__(self, a, b=0, field=None):
        if field is None:
            field = _RATIONAL
        if type(a) is int and type(b) is int:
            x, y, den = a, b, 1
        else:
            a = a if type(a) is Fraction else Fraction(a)
            b = b if type(b) is Fraction else Fraction(b)
            den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
            x = a.numerator * (den // a.denominator)
            y = b.numerator * (den // b.denominator)
        if field.e is None and y:
            raise CoefficientError("nonzero sqrt coordinate over Q")
        self.x, self.y, self.den, self.field = x, y, den, field

    @staticmethod
    def from_ints(x, y, den, field):
        """(x + y*sqrt(e))/den for integers x, y and den > 0."""
        if den != 1:
            g = math.gcd(x, y, den)
            if g != 1:
                x, y, den = x // g, y // g, den // g
        z = _new(QuadElt)
        z.x, z.y, z.den, z.field = x, y, den, field
        return z

    @property
    def a(self):
        return Fraction(self.x, self.den)

    @property
    def b(self):
        return Fraction(self.y, self.den)

    # -- ring operations -------------------------------------------------

    def _operand(self, other):
        """(x, y, den, field) of other, with field the common field; None if
        foreign.  Q lies in every Q(sqrt(e)); two radicands do not mix."""
        if isinstance(other, QuadElt):
            sf, of = self.field, other.field
            if of.e != sf.e and of.e is not None:
                if sf.e is not None:
                    raise CoefficientError(f"mixed coefficient fields {sf} and {of}")
                sf = of
            return other.x, other.y, other.den, sf
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, self.field
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x, y, den, field = o
        if den == self.den:
            return _elt(self.x + x, self.y + y, den, field)
        return _elt(self.x * den + x * self.den, self.y * den + y * self.den,
                    self.den * den, field)

    __radd__ = __add__

    def __neg__(self):
        return _elt(-self.x, -self.y, self.den, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x, y, den, field = o
        if not (y or self.y):
            return _elt(self.x * x, 0, self.den * den, field)
        return _elt(self.x * x + field.e * self.y * y, self.x * y + self.y * x,
                    self.den * den, field)

    __rmul__ = __mul__

    def inverse(self):
        x, y, den, field = self.x, self.y, self.den, self.field
        if not y:
            if not x:
                raise ZeroDivisionError("inverting zero")
            return _elt(den, 0, x, field) if x > 0 else _elt(-den, 0, -x, field)
        # den / (x + y sqrt(e)) = den (x - y sqrt(e)) / n, n = x^2 - e y^2 != 0
        n = x * x - field.e * y * y
        if n < 0:
            den, n = -den, -n
        return _elt(den * x, -den * y, n, field)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self * _elt(*o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        if not self.y:
            return _elt(self.x ** n, 0, self.den ** n, self.field)
        out = _elt(1, 0, 1, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conjugate(self):
        return _elt(self.x, -self.y, self.den, self.field)

    def norm(self):
        e = self.field.e or 0
        return Fraction(self.x * self.x - e * self.y * self.y, self.den * self.den)

    def sign_theta1(self):
        """Exact sign under theta1, which sends sqrt(e) to the positive root."""
        x, y = self.x, self.y
        if not y:
            return (x > 0) - (x < 0)
        sy = 1 if y > 0 else -1
        if x == 0 or (x > 0) == (y > 0):
            return sy
        # opposite signs: the larger of |x| and |y| sqrt(e) wins (x^2 != e y^2)
        return -sy if x * x > self.field.e * y * y else sy

    def sign_theta2(self):
        """Exact sign under theta2, which sends sqrt(e) to the negative root."""
        return self.conjugate().sign_theta1()

    def is_totally_positive(self):
        return self.sign_theta1() > 0 and self.sign_theta2() > 0

    def __eq__(self, other):
        if isinstance(other, QuadElt):
            return (self.x == other.x and self.y == other.y and self.den == other.den
                    and (not self.y or self.field.e == other.field.e))
        if isinstance(other, (int, Fraction)):
            return not self.y and self.x == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self.y:
            return hash(self.a)
        return hash((self.a, self.b, self.field.e))

    def __bool__(self):
        return bool(self.x or self.y)

    def __repr__(self):
        if not self.y:
            return format_rational(self.a)
        return f"{format_rational(self.a)} + {format_rational(self.b)}*sqrt({self.field.e})"

    # -- numeric / wire --------------------------------------------------

    def __float__(self):
        with mp_context():
            return float(to_mpf(self))

    def to_json(self):
        if not self.y:
            return format_rational(self.a)
        return {"a": format_rational(self.a), "b": format_rational(self.b)}


def to_mpf(x):
    """The one way from an exact value (QuadElt, int or Fraction) to mpmath: an
    mpf at the working precision of the caller's mpmath context, which it does
    not re-enter."""
    if isinstance(x, QuadElt):
        if not x.y:
            # dividing a rounded value by 1 leaves it as it is
            return mpmath.mpf(x.x) if x.den == 1 else mpmath.mpf(x.x) / x.den
        a, b = x.a, x.b
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.sqrt(x.field.e) * b.numerator / b.denominator)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _coords(c):
    """(x, y, den) with c = (x + y sqrt(e)) / den, for a QuadElt, Fraction or int."""
    return (c.x, c.y, c.den) if isinstance(c, QuadElt) else (c.numerator, 0, c.denominator)


def _times(u, v, e):
    """The canonical triple of the product of the triples u and v over Q(sqrt e)."""
    (a, b, q), (c, d, r) = u, v
    x, y, den = a * c + e * b * d, a * d + b * c, q * r
    g = math.gcd(x, y, den)
    return (x, y, den) if g == 1 else (x // g, y // g, den // g)


def _plus(u, v, c):
    """A triple, den > 0 but not reduced, of u + c v for triples u, v and an int c."""
    (a, b, q), (x, y, r) = u, v
    return (a + c * x, b + c * y, q) if q == r else (a * r + c * x * q, b * r + c * y * q, q * r)


_new = object.__new__
_elt = QuadElt.from_ints
_RATIONAL = CoefficientField(None)
