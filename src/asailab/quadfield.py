"""Exact arithmetic in F = Q(sqrt(d)) for squarefree d > 1.

Elements are stored over the integral basis (1, omega) with omega =
(1+sqrt(d))/2 when d = 1 mod 4 and omega = sqrt(d) otherwise.  Integral
ideals are kept in Hermite normal form [n, m + g*omega] with g | n, g | m,
normalised so n > 0, g > 0, 0 <= m < n; the norm is n*g.

Ideal factorisation support is restricted to class number 1 (a generator
search that fails on a non-principal ideal raises), which covers every field
this package targets.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import mpmath

from .precision import mp_context


class QuadFieldError(ValueError):
    pass


class NotPrincipalError(QuadFieldError):
    """Raised when a generator search fails; class number > 1 is unsupported."""


def is_squarefree(n):
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


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
        remaining = self.norm()
        for ell in _prime_factors(remaining):
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


def _prime_factors(n):
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n):
    return n >= 2 and _prime_factors(n) == [n]


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


def _sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


@lru_cache(maxsize=1024)
def splitting_type(field, ell):
    """Splitting of the prime ell in field; memoised per (d, ell)."""
    ell = int(ell)
    if not _is_prime(ell):
        raise QuadFieldError(f"{ell} is not prime")
    t, n = field.omega_trace, field.omega_norm
    # roots of the minimal polynomial x^2 - t x + n of omega mod ell; for odd
    # ell they are (t +- sqrt(disc)) / 2, disc = t^2 - 4n, when disc is a square
    if ell == 2:
        roots = [r for r in (0, 1) if (r * r - t * r + n) % 2 == 0]
    elif pow(field.disc, (ell - 1) // 2, ell) == ell - 1:
        roots = []
    else:
        root, half = _sqrt_mod(field.disc, ell), (ell + 1) // 2
        roots = {(t + root) * half % ell, (t - root) * half % ell}
    if not roots:
        return SplittingType(SplitKind.INERT, ell, (field.ideal(field.element(ell)),))
    ps = sorted((field.ideal(field.element(ell), field.element(-r, 1)) for r in roots),
                key=lambda p: p.hnf())
    return SplittingType(SplitKind.RAMIFIED if len(ps) == 1 else SplitKind.SPLIT, ell,
                         tuple(ps))


def primes_above(field, ell):
    return list(splitting_type(field, ell).primes)


def _sqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def fundamental_unit(field, coeff_bound=10 ** 6):
    """Fundamental unit eps > 1 under theta1, with the sign of its norm.

    Continued-fraction expansion of sqrt(d) gives the fundamental solution of
    x^2 - d y^2 = +-1; for d = 1 mod 4 a smaller half-integral unit
    (x + y sqrt(d))/2 with x^2 - d y^2 = +-4 is searched below that bound.
    """
    d = field.d
    # continued fraction of sqrt(d)
    a0 = math.isqrt(d)
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    P, Q, a = 0, 1, a0
    unit_zd = None
    for _ in range(4 * coeff_bound):
        val = p * p - d * q * q
        if val in (1, -1):
            unit_zd = (p, q, val)
            break
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if q > coeff_bound:
            break
    if unit_zd is None:
        raise QuadFieldError(f"fundamental unit search exceeded bound for d={d}")
    x, y, nrm = unit_zd
    if d % 4 == 1:
        # a smaller half-integral unit (xx+yy*sqrt(d))/2 may exist: xx^2-d*yy^2 = +-4
        for yy in range(1, y + 1):
            for s in (-4, 4):
                sq = _sqrt_exact(d * yy * yy + s)
                if sq is not None and (sq - yy) % 2 == 0:
                    # (sq + yy*sqrt(d))/2 = (sq-yy)/2 + yy*omega
                    return field.element(Fraction(sq - yy, 2), yy), (1 if s == 4 else -1)
        return field.element(x - y, 2 * y), nrm  # x + y*sqrt(d) over (1, omega)
    return field.element(x, y), nrm


def _reduced_basis(ideal):
    """Lagrange-reduced Z-basis of the ideal under the form q(x) = Tr(x^2)... """
    f = ideal.field
    v1, v2 = ideal.generators()

    def q(x):
        # theta1^2 + theta2^2 = Tr(x)^2 - 2*Norm(x)
        tr = x.trace()
        return tr * tr - 2 * x.norm()

    def b(x, y):
        return (q(x + y) - q(x) - q(y)) / 2

    while True:
        if q(v2) < q(v1):
            v1, v2 = v2, v1
        mu = b(v1, v2) / q(v1)
        k = round(mu)
        if k == 0:
            break
        v2 = v2 - k * v1
    return v1, v2


def find_generator(ideal, search_slack=4):
    """Some generator of a principal ideal, or raise NotPrincipalError."""
    f = ideal.field
    eps, _ = f.fundamental_unit()
    u = eps.theta1()
    bound = float((u + 1 / u)) * ideal.norm() * search_slack
    v1, v2 = _reduced_basis(ideal)

    def q(x):
        tr = x.trace()
        return tr * tr - 2 * x.norm()

    q1 = q(v1)
    target = ideal.norm()
    s_max = math.isqrt(int(bound // int(q1)) + 1) + 1
    found = []
    for s in range(0, s_max + 1):
        for t in range(-s_max - 1, s_max + 2):
            if s == 0 and t <= 0:
                continue
            x = s * v1 + t * v2
            if float(q(x)) > bound:
                continue
            if abs(x.norm()) == target and ideal.contains(x) and f.ideal(x) == ideal:
                found.append(x)
    if not found:
        raise NotPrincipalError(
            f"no generator found for {ideal}; non-principal ideals (class number > 1) unsupported")
    # canonical: shortest, then positive under theta1
    found.sort(key=lambda x: (q(x), -x.sign_theta1(), x.a, x.b))
    return found[0]


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
    nn = n
    for ell in _prime_factors(n):
        e = 0
        while nn % ell == 0:
            nn //= ell
            e += 1
        locals_ = _norm_ell_power_ideals(field, ell, e)
        out = [i * j for i in out for j in locals_]
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
