"""Exact coefficient arithmetic: Q and real quadratic extensions Q(sqrt(e)).

Eigenvalue data is stored exactly.  A value is (a, b) meaning a + b*sqrt(e)
over the declared coefficient field; rational values carry e = None and b = 0.
Numeric embeddings send sqrt(e) to the positive real square root.
"""

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

    def zero(self):
        return self.element(0)

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
    """a + b*sqrt(e) with exact rational a, b; products of two elements with
    b == 0 multiply the rational parts alone."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b=0, field=None):
        if field is None:
            field = _RATIONAL
        self.field = field
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        if field.e is None and self.b:
            raise CoefficientError("nonzero sqrt coordinate over Q")

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        """(a, b, field) of other, with field the common field; None if foreign."""
        if isinstance(other, QuadElt):
            sf, of = self.field, other.field
            if sf is of or of.e is None or sf.e == of.e:
                return other.a, other.b, sf
            if sf.e is None and not other.b:
                return other.a, other.b, of
            raise CoefficientError(f"mixed coefficient fields {sf} and {of}")
        if isinstance(other, (int, Fraction)):
            return other if type(other) is Fraction else Fraction(other), _ZERO, self.field
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, f = o
        return QuadElt(self.a + a, self.b + b, f)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(-self.a, -self.b, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, f = o
        if not (b or self.b):
            return QuadElt(self.a * a, _ZERO, f)
        return QuadElt(self.a * a + f.e * self.b * b, self.a * b + self.b * a, f)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverting zero coefficient value")
        return QuadElt(self.a / n, -self.b / n, self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * QuadElt(*o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        n = int(n)
        if not self.b:
            return QuadElt(self.a ** n, _ZERO, self.field)
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadElt(1, 0, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conjugate(self):
        return QuadElt(self.a, -self.b, self.field)

    def norm(self):
        e = self.field.e if self.field.e is not None else 0
        return self.a * self.a - e * self.b * self.b

    def trace(self):
        return 2 * self.a

    @property
    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b != 0:
            raise CoefficientError(f"{self} is not rational")
        return self.a

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElt):
            return self.a == other.a and self.b == other.b and (
                self.b == 0 or self.field == other.field)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.field.e))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return format_rational(self.a)
        return f"{format_rational(self.a)} + {format_rational(self.b)}*sqrt({self.field.e})"

    # -- numeric / wire --------------------------------------------------

    def to_mpf(self, prec=None):
        with mp_context(prec):
            if self.b == 0:
                return mpmath.mpf(self.a.numerator) / self.a.denominator
            root = mpmath.sqrt(self.field.e)
            return (mpmath.mpf(self.a.numerator) / self.a.denominator
                    + root * self.b.numerator / self.b.denominator)

    def __float__(self):
        return float(self.to_mpf())

    def to_json(self):
        if self.b == 0:
            return format_rational(self.a)
        return {"a": format_rational(self.a), "b": format_rational(self.b)}


def to_mpf(x, prec=None):
    """An exact value (QuadElt, int or Fraction) as an mpf; a rational is
    rounded once at the current working precision."""
    if isinstance(x, QuadElt):
        return x.to_mpf(prec)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


_ZERO = Fraction(0)
_RATIONAL = CoefficientField(None)
