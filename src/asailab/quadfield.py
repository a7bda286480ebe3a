"""Exact arithmetic in F = Q(sqrt(d)) for squarefree d > 1.

Elements are stored over the integral basis (1, omega) with omega =
(1+sqrt(d))/2 when d = 1 mod 4 and omega = sqrt(d) otherwise.  Integral
ideals are kept in Hermite normal form [n, m + g*omega] with g | n, g | m,
normalised so n > 0, g > 0, 0 <= m < n; the norm is n*g.

Units and generators come from the rho-cycle of reduced indefinite binary
quadratic forms (Cohen, GTM 138, 5.6-5.8), in O(log eps) steps with no
bound; `find_generator` raises NotPrincipalError only when the cycle proves
the ideal non-principal, so fields of any class number are handled.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import factorise, is_prime, is_squarefree, sqrt_mod
from .precision import mp_context


class QuadFieldError(ValueError):
    pass


class NotPrincipalError(QuadFieldError):
    """Raised when the cycle of reduced forms proves an ideal non-principal."""


def discriminant(d):
    """Field discriminant of Q(sqrt(d)); rejects d <= 1 or non-squarefree d."""
    d = int(d)
    if d <= 1:
        raise QuadFieldError(f"need d > 1, got {d}")
    if not is_squarefree(d):
        raise QuadFieldError(f"d = {d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


def _sign_of_p_plus_q_sqrt(p, q, d):
    """Exact sign of p + q*sqrt(d) for rational p, q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    cmp = p * p - q * q * d  # sign of (|p| - |q|sqrt(d)) * (|p| + |q|sqrt(d))
    if cmp == 0:
        return 0
    if p > 0:
        return 1 if cmp > 0 else -1
    return -1 if cmp > 0 else 1


class RealQuadraticField:
    """Q(sqrt(d)) with its ring of integers Z + Z*omega."""

    def __init__(self, d):
        self.disc = discriminant(d)  # validates d
        self.d = int(d)
        if self.d % 4 == 1:
            self.omega_trace = 1
            self.omega_norm = Fraction(1 - self.d, 4)
        else:
            self.omega_trace = 0
            self.omega_norm = Fraction(-self.d)
        if self.omega_norm.denominator != 1:
            raise QuadFieldError("internal: omega norm not integral")
        self.omega_norm = int(self.omega_norm)
        self._unit = None

    def __repr__(self):
        return f"RealQuadraticField(d={self.d})"

    def __eq__(self, other):
        return isinstance(other, RealQuadraticField) and self.d == other.d

    def __hash__(self):
        return hash(("RealQuadraticField", self.d))

    # -- elements ----------------------------------------------------------

    def element(self, a, b=0):
        return FieldElement(self, Fraction(a), Fraction(b))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def omega(self):
        return self.element(0, 1)

    def sqrt_d(self):
        """sqrt(d) as a field element."""
        if self.d % 4 == 1:
            return self.element(-1, 2)  # 2*omega - 1
        return self.element(0, 1)

    def sqrt_disc(self):
        """sqrt(Delta) = 2*omega - Tr(omega); generates the different."""
        return self.element(-self.omega_trace, 2)

    # -- ideals --------------------------------------------------------------

    def ideal(self, *generators):
        gens = []
        for x in generators:
            if isinstance(x, (int, Fraction)):
                x = self.element(x)
            gens.append(x)
        return _hnf_from_generators(self, gens)

    def maximal_order(self):
        return IdealRep(self, 1, 0, 1)

    def different(self):
        return self.ideal(self.sqrt_disc())

    def splitting_type(self, ell):
        return splitting_type(self, ell)

    def primes_above(self, ell):
        return primes_above(self, ell)

    def fundamental_unit(self):
        if self._unit is None:
            self._unit = fundamental_unit(self)
        return self._unit

    def ideals_of_norm(self, n):
        return ideals_of_norm(self, n)


class FieldElement:
    """a + b*omega with rational a, b."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field.d != self.field.d:
                raise QuadFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, Fraction(other), Fraction(0))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        t, n = self.field.omega_trace, self.field.omega_norm
        # omega^2 = t*omega - n
        be = self.b * o.b
        return FieldElement(self.field,
                            self.a * o.a - n * be,
                            self.a * o.b + self.b * o.a + t * be)

    __rmul__ = __mul__

    def conjugate(self):
        t = self.field.omega_trace
        return FieldElement(self.field, self.a + self.b * t, -self.b)

    def norm(self):
        t, n = self.field.omega_trace, self.field.omega_norm
        return self.a * self.a + t * self.a * self.b + n * self.b * self.b

    def trace(self):
        return 2 * self.a + self.field.omega_trace * self.b

    def inverse(self):
        nm = self.norm()
        if nm == 0:
            raise ZeroDivisionError("inverting zero")
        c = self.conjugate()
        return FieldElement(self.field, c.a / nm, c.b / nm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.field.d, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_integral(self):
        return self.a.denominator == 1 and self.b.denominator == 1

    # exact sign data: theta1(x) = P + Q*sqrt(d), theta2(x) = P - Q*sqrt(d)
    def _pq(self):
        if self.field.d % 4 == 1:
            return self.a + self.b / 2, self.b / 2
        return self.a, self.b

    def sign_theta1(self):
        p, q = self._pq()
        return _sign_of_p_plus_q_sqrt(p, q, self.field.d)

    def sign_theta2(self):
        p, q = self._pq()
        return _sign_of_p_plus_q_sqrt(p, -q, self.field.d)

    def is_totally_positive(self):
        return self.sign_theta1() > 0 and self.sign_theta2() > 0

    def theta1(self, prec=None):
        with mp_context(prec):
            p, q = self._pq()
            return mpmath.mpf(p.numerator) / p.denominator + \
                mpmath.sqrt(self.field.d) * q.numerator / q.denominator

    def theta2(self, prec=None):
        with mp_context(prec):
            p, q = self._pq()
            return mpmath.mpf(p.numerator) / p.denominator - \
                mpmath.sqrt(self.field.d) * q.numerator / q.denominator

    def embedding_power(self, t1, t2):
        """theta1(x)^t1 * theta2(x)^t2, exact; defined when the result is rational.

        Works whenever t1 == t2 (gives Norm^t1); otherwise only for rational x.
        """
        if t1 == t2:
            return self.norm() ** t1
        if self.b == 0:
            return self.a ** (t1 + t2)
        raise QuadFieldError("irrational embedding power")

    def __repr__(self):
        return f"({self.a}) + ({self.b})*w  [d={self.field.d}]"


def _hnf_from_generators(field, gens):
    """HNF of the O_F-module generated by the given integral elements."""
    cols = []
    t, n = field.omega_trace, field.omega_norm
    for x in gens:
        if not x.is_integral():
            raise QuadFieldError(f"ideal generator {x} is not integral")
        if not x:
            continue
        cols.append((int(x.a), int(x.b)))
        # omega * x
        cols.append((int(-n * x.b), int(x.a + t * x.b)))
    if not cols:
        raise QuadFieldError("zero ideal")
    # Column-reduce the 2 x N integer matrix with rows (coeff of 1, coeff of omega).
    # First make a single column with minimal positive omega-coefficient g.
    a1, b1 = cols[0]
    for a2, b2 in cols[1:]:
        if b2 == 0:
            continue
        if b1 == 0:
            a1, b1 = a2, b2
            continue
        g, u, v = _xgcd(b1, b2)
        a1, b1 = u * a1 + v * a2, g
    g = abs(b1)
    if b1 < 0:
        a1 = -a1
    m = a1
    # Remaining lattice of pure-rational entries: reduce every column mod the pivot.
    pure = []
    for a2, b2 in cols:
        if g != 0:
            q, r = divmod(b2, g)
            if r != 0:
                raise QuadFieldError("internal: HNF pivot failure")
            a2 -= q * m
        if a2 != 0:
            pure.append(abs(a2))
    if not pure:
        raise QuadFieldError("module has rank < 2; not an ideal")
    nn = 0
    for a2 in pure:
        nn = math.gcd(nn, a2)
    m %= nn
    return IdealRep(field, nn, m, g)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IdealRep:
    """Integral ideal [n, m + g*omega] in normalised HNF."""

    __slots__ = ("field", "n", "m", "g")

    def __init__(self, field, n, m, g):
        if n <= 0 or g <= 0:
            raise QuadFieldError("HNF needs n > 0 and g > 0")
        if n % g or m % g:
            raise QuadFieldError("HNF needs g | n and g | m")
        m %= n
        # ideal test: n*g | Norm(m + g*omega)
        val = FieldElement(field, Fraction(m), Fraction(g)).norm()
        if (val / (n * g)).denominator != 1:
            raise QuadFieldError(f"[{n}, {m}+{g}w] is not an O_F-module")
        self.field = field
        self.n = int(n)
        self.m = int(m)
        self.g = int(g)

    def hnf(self):
        return (self.n, self.m, self.g)

    def norm(self):
        return self.n * self.g

    def generators(self):
        f = self.field
        return f.element(self.n), f.element(self.m, self.g)

    def __eq__(self, other):
        return (isinstance(other, IdealRep) and self.field.d == other.field.d
                and self.hnf() == other.hnf())

    def __hash__(self):
        return hash((self.field.d, self.hnf()))

    def __repr__(self):
        return f"[{self.n}, {self.m} + {self.g}w]"

    def __mul__(self, other):
        if isinstance(other, IdealRep):
            if other.field.d != self.field.d:
                raise QuadFieldError("ideals of different fields")
            x1, x2 = self.generators()
            y1, y2 = other.generators()
            return _hnf_from_generators(self.field, [x1 * y1, x1 * y2, x2 * y1, x2 * y2])
        if isinstance(other, FieldElement):
            x1, x2 = self.generators()
            return _hnf_from_generators(self.field, [x1 * other, x2 * other])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise QuadFieldError("negative ideal powers unsupported")
        out = self.field.maximal_order()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def contains(self, x):
        if isinstance(x, (int, Fraction)):
            x = self.field.element(x)
        if not x.is_integral():
            return False
        b = int(x.b)
        if b % self.g:
            return False
        return (int(x.a) - (b // self.g) * self.m) % self.n == 0

    def divides(self, other):
        """self | other, i.e. other is contained in self."""
        y1, y2 = other.generators()
        return self.contains(y1) and self.contains(y2)

    def conjugate(self):
        x1, x2 = self.generators()
        return _hnf_from_generators(self.field, [x1.conjugate(), x2.conjugate()])

    def valuation(self, prime):
        """Exponent of a prime ideal in self (by repeated containment)."""
        v = 0
        power = prime
        while power.divides(self):
            v += 1
            power = power * prime
            if power.norm() > self.norm() * prime.norm():
                break
        return v

    def factor(self):
        """List of (prime IdealRep, exponent); needs the norm to factor over Z."""
        out = []
        for ell, _ in factorise(self.norm()):
            for p in primes_above(self.field, ell):
                v = self.valuation(p)
                if v:
                    out.append((p, v))
        check = 1
        for p, v in out:
            check *= p.norm() ** v
        if check != self.norm():
            raise QuadFieldError(f"factorisation failure for {self}")
        return out


class SplitKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True, repr=False)
class SplittingType:
    """Splitting of a rational prime, with the primes above it (immutable:
    splitting_type hands one object to every caller)."""

    kind: SplitKind
    ell: int
    primes: tuple

    def __repr__(self):
        return f"SplittingType({self.kind.value}, ell={self.ell})"

    @property
    def is_split(self):
        return self.kind is SplitKind.SPLIT

    @property
    def is_inert(self):
        return self.kind is SplitKind.INERT

    @property
    def is_ramified(self):
        return self.kind is SplitKind.RAMIFIED


@lru_cache(maxsize=1024)
def splitting_type(field, ell):
    """Splitting of the prime ell in field; memoised per (d, ell)."""
    ell = int(ell)
    if not is_prime(ell):
        raise QuadFieldError(f"{ell} is not prime")
    t, n = field.omega_trace, field.omega_norm
    # roots of the minimal polynomial x^2 - t x + n of omega mod ell; for odd
    # ell they are (t +- sqrt(disc)) / 2, disc = t^2 - 4n, when disc is a square
    if ell == 2:
        roots = [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
    elif pow(field.disc, (ell - 1) // 2, ell) == ell - 1:
        roots = []
    else:
        root, half = sqrt_mod(field.disc, ell), (ell + 1) // 2
        roots = {(t + root) * half % ell, (t - root) * half % ell}
    if not roots:
        return SplittingType(SplitKind.INERT, ell, (IdealRep(field, ell, 0, ell),))
    # (ell, omega - r) is the Z-module ell Z + (omega - r) Z: HNF [ell, -r + omega]
    ps = sorted((IdealRep(field, ell, -r % ell, 1) for r in roots), key=lambda p: p.hnf())
    return SplittingType(SplitKind.RAMIFIED if len(ps) == 1 else SplitKind.SPLIT, ell,
                         tuple(ps))


def primes_above(field, ell):
    return list(splitting_type(field, ell).primes)


def _rho_cycle(a, b, c, disc):
    """Walk Cohen's rho from the form a x^2 + b x y + c y^2 of discriminant disc.

    Yields (a, x, y) for the start form f and each form rho makes from it,
    where (x, y) is the first column of the SL2(Z) matrix M with f(M (X, Y))
    the current form, so f(x, y) = a.  rho reaches a reduced form in O(log)
    steps and permutes the reduced forms of a class in one cycle (Cohen,
    GTM 138, 5.6); the walk stops after yielding its first reduced form again.
    All comparisons with sqrt(disc) are exact, through s = isqrt(disc).
    """
    s = math.isqrt(disc)  # disc is not a square: an integer t < sqrt(disc) iff t <= s
    x, y, u, v = 1, 0, 0, 1  # M = [[x, u], [y, v]]
    first = None
    while True:
        yield a, x, y
        if 0 < b <= s and b + 2 * abs(a) > s and 2 * abs(a) - b <= s:  # reduced
            if first is None:
                first = (a, b)
            elif first == (a, b):
                return
        # rho(a, b, c) = (c, r, (r^2 - disc) / 4c), r = -b mod 2c with
        # sqrt(disc) - 2|c| < r < sqrt(disc) when |c| < sqrt(disc), else -|c| < r <= |c|
        cc = abs(c)
        if cc <= s:
            r = s - (s + b) % (2 * cc)
        else:
            r = -b % (2 * cc)
            if r > cc:
                r -= 2 * cc
        t = (r + b) // (2 * c)
        x, y, u, v = u, v, t * u - x, t * v - y  # M <- M [[0, -1], [1, t]]
        a, b, c = c, r, (r * r - disc) // (4 * c)


def _cycle_generators(field, a, b):
    """The generators x a + y (b + omega) of the primitive ideal [a, b + omega]
    met along the rho-cycle of its norm form Norm(x a + y (b + omega)) / a,
    at the forms with first coefficient +-1."""
    t = field.omega_trace
    nb = b * b + t * b + field.omega_norm  # Norm(b + omega), divisible by a
    for fa, x, y in _rho_cycle(a, 2 * b + t, nb // a, field.disc):
        if fa in (1, -1):
            yield field.element(x * a + y * b, y)


def fundamental_unit(field):
    """Fundamental unit eps > 1 under theta1, with the sign of its norm.

    The principal class holds one reduced form with a = 1 and at most one
    with a = -1; the elements at consecutive ones differ by a fundamental
    unit, which is normalised to theta1 > 1.
    """
    s = math.isqrt(field.disc)
    b0 = s if (s - field.disc) % 2 == 0 else s - 1  # (1, b0, c0) is reduced
    units = _cycle_generators(field, 1, (b0 - field.omega_trace) // 2)
    next(units)  # the start, 1
    u = next(units)  # +-eps or +-1/eps
    if (u * u - 1).sign_theta1() < 0:  # |theta1(u)| < 1
        u = u.inverse()
    eps = u if u.sign_theta1() > 0 else -u
    return eps, int(eps.norm())


def _q(x):
    """theta1(x)^2 + theta2(x)^2 = Tr(x)^2 - 2 Norm(x), exact."""
    tr = x.trace()
    return tr * tr - 2 * x.norm()


def find_generator(ideal):
    """The shortest generator of a principal ideal, or raise NotPrincipalError.

    The rho-cycle of the norm form of the primitive part of the ideal either
    meets a form with |a| = 1, which gives a generator, or closes without
    one, which proves the ideal non-principal.  The generators are +-x eps^k
    and q(x eps^k) = theta1^2 + theta2^2 is strictly convex in k, so the
    walk down it ends at the least q; among the generators there, the first
    under (q, -sign theta1, a, b) is returned.
    """
    f = ideal.field
    n, m, g = ideal.hnf()  # ideal = g [n/g, m/g + omega]
    x = next(_cycle_generators(f, n // g, m // g), None)
    if x is None:
        raise NotPrincipalError(f"{ideal} is not principal in Q(sqrt({f.d}))")
    x = g * x
    eps, _ = f.fundamental_unit()
    q_least, least = _q(x), [x]
    for step in (eps, eps.inverse()):
        y = x * step
        while (qy := _q(y)) <= q_least:
            if qy < q_least:
                q_least, least = qy, []
            least.append(y)
            y = y * step
    return min((y for z in least for y in (z, -z)),
               key=lambda y: (-y.sign_theta1(), y.a, y.b))


def totally_positive_generator(ideal):
    """A totally positive generator if one exists, else None.

    Exhausts sign flips and unit multiples of one generator; complete because
    the sign patterns of units are {±1, ±eps}-patterns.
    """
    x = find_generator(ideal)
    f = ideal.field
    eps, _ = f.fundamental_unit()
    for cand in (x, -x, eps * x, -(eps * x)):
        if cand.is_totally_positive():
            return cand
    return None


@lru_cache(maxsize=None)
def _norm_ell_power_ideals(field, ell, e):
    """Ideals of norm ell^e supported above ell, as a tuple."""
    st = splitting_type(field, ell)
    out = []
    if st.is_split:
        p, pbar = st.primes
        for a in range(e + 1):
            out.append((p ** a) * (pbar ** (e - a)))
    elif st.is_inert:
        if e % 2 == 0:
            out.append(st.primes[0] ** (e // 2))
    else:
        out.append(st.primes[0] ** e)
    return tuple(out)


def ideals_of_norm(field, n):
    """All integral ideals of norm exactly n, sorted by HNF tuple."""
    n = int(n)
    if n < 1:
        raise QuadFieldError("norm must be >= 1")
    out = [field.maximal_order()]
    for ell, e in factorise(n):
        locals_ = _norm_ell_power_ideals(field, ell, e)
        out = [i * j if i.norm() > 1 else j for i in out for j in locals_]
    out.sort(key=lambda i: i.hnf())
    return out


def ideal_label(ideal):
    """'norm.index' label; equal-norm ideals ordered by HNF lex order."""
    peers = ideals_of_norm(ideal.field, ideal.norm())
    return f"{ideal.norm()}.{peers.index(ideal)}"


def ideal_from_label(field, label):
    try:
        norm_s, idx_s = label.split(".")
        norm, idx = int(norm_s), int(idx_s)
    except ValueError as exc:
        raise QuadFieldError(f"bad ideal label {label!r}") from exc
    peers = ideals_of_norm(field, norm)
    if idx >= len(peers):
        raise QuadFieldError(f"no ideal {label!r} in Q(sqrt({field.d}))")
    return peers[idx]
