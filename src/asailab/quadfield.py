"""Exact arithmetic in F = Q(sqrt(d)) for squarefree d > 1.

Elements are coeffs.QuadElt values (x + y*sqrt(d))/den; `element` and
`omega_coords` translate to and from the integral basis (1, omega) with
omega = (1+sqrt(d))/2 when d = 1 mod 4 and omega = sqrt(d) otherwise.  Integral
ideals are kept in Hermite normal form [n, m + g*omega] with g | n, g | m,
normalised so n > 0, g > 0, 0 <= m < n; the norm is n*g.  Products and
divisibility work on these integer coordinates; `RealQuadraticField.ideal` is
the one entry that takes elements.

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

from .arith import factorise, is_prime, is_squarefree, sqrt_mod
from .coeffs import QuadElt


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


_FIELDS = {}   # d -> the one RealQuadraticField of d


class RealQuadraticField:
    """Q(sqrt(d)) with its ring of integers Z + Z*omega.

    There is one object per d: RealQuadraticField(d) validates d and returns
    the object of that d from a process-wide dict, filled by `dict.setdefault`
    so that concurrent first calls agree.  Equality is identity, so every
    per-field memo hits by identity and the fundamental unit is found once per d.
    """

    def __new__(cls, d):
        field = _FIELDS.get(d)
        if field is not None:
            return field
        field = super().__new__(cls)
        field.disc = discriminant(d)  # validates d
        field.d = field.e = int(d)  # e: the radicand QuadElt reads
        if field.d % 4 == 1:  # omega = (1 + sqrt d)/2, a root of X^2 - X + (1 - d)/4
            field.omega_trace, field.omega_norm = 1, (1 - field.d) // 4
        else:  # omega = sqrt d
            field.omega_trace, field.omega_norm = 0, -field.d
        field._unit = None
        return _FIELDS.setdefault(field.d, field)

    def __repr__(self):
        return f"RealQuadraticField(d={self.d})"

    # -- elements ----------------------------------------------------------

    def element(self, a, b=0):
        """a + b*omega."""
        if not self.omega_trace:
            return QuadElt(a, b, self)
        if type(a) is int and type(b) is int:
            return QuadElt.from_ints(2 * a + b, b, 2, self)
        b = Fraction(b) / 2
        return QuadElt(a + b, b, self)

    def omega_coords(self, x):
        """(a, b) with x = a + b*omega, as Fractions."""
        if not self.omega_trace:
            return x.a, x.b
        # sqrt(d) = 2 omega - 1
        return Fraction(x.x - x.y, x.den), Fraction(2 * x.y, x.den)

    def sqrt_disc(self):
        """sqrt(Delta) = 2*omega - Tr(omega); generates the different."""
        return self.element(-self.omega_trace, 2)

    # -- ideals --------------------------------------------------------------

    def ideal(self, *generators):
        """The ideal generated by integral elements (QuadElts, ints or Fractions)."""
        t, n = self.omega_trace, self.omega_norm
        pairs = []
        for x in generators:
            a, b = self.omega_coords(x if isinstance(x, QuadElt) else self.element(x))
            if a.denominator != 1 or b.denominator != 1:
                raise QuadFieldError(f"ideal generator {x} is not integral")
            a, b = a.numerator, b.numerator
            pairs += [(a, b), (-n * b, a + t * b)]  # x and omega * x
        if not any(a or b for a, b in pairs):
            raise QuadFieldError("zero ideal")
        return _hnf(self, pairs)

    def maximal_order(self):
        return IdealRep(self, 1, 0, 1)

    def different(self):
        return self.ideal(self.sqrt_disc())

    def primes_above(self, ell):
        return list(splitting_type(self, ell).primes)

    def fundamental_unit(self):
        if self._unit is None:
            self._unit = fundamental_unit(self)
        return self._unit


def _hnf(field, pairs):
    """HNF of the Z-module spanned by the integer pairs (a, b), the elements
    a + b*omega; IdealRep rejects a module that is not an ideal."""
    # one column m + g*omega with g the least positive omega-coefficient
    m = g = 0
    for a, b in pairs:
        if b and g:
            g, u, v = _xgcd(g, b)
            m = u * m + v * a
        elif b:
            m, g = a, b
    if g == 0:
        raise QuadFieldError("module has rank < 2; not an ideal")
    if g < 0:
        m, g = -m, -g
    # the rest, reduced by that pivot, is rational and spans n Z
    n = 0
    for a, b in pairs:
        q, r = divmod(b, g)
        if r:
            raise QuadFieldError("internal: HNF pivot failure")
        n = math.gcd(n, a - q * m)
    if n == 0:
        raise QuadFieldError("module has rank < 2; not an ideal")
    return IdealRep(field, n, m % n, g)


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
        # ideal test: n*g | Norm(m + g*omega) = m^2 + Tr(omega) m g + Norm(omega) g^2
        if (m * m + field.omega_trace * m * g + field.omega_norm * g * g) % (n * g):
            raise QuadFieldError(f"[{n}, {m}+{g}w] is not an O_F-module")
        self.field = field
        self.n = int(n)
        self.m = int(m)
        self.g = int(g)

    def hnf(self):
        return (self.n, self.m, self.g)

    def norm(self):
        return self.n * self.g

    def __eq__(self, other):
        return (isinstance(other, IdealRep) and self.field.d == other.field.d
                and self.hnf() == other.hnf())

    def __hash__(self):
        return hash((self.field.d, self.hnf()))

    def __repr__(self):
        return f"[{self.n}, {self.m} + {self.g}w]"

    def __mul__(self, other):
        """The product of the Z-bases [n, m + g omega] of the two ideals, with
        omega^2 = Tr(omega) omega - Nm(omega)."""
        if not isinstance(other, IdealRep):
            return NotImplemented
        if other.field.d != self.field.d:
            raise QuadFieldError("ideals of different fields")
        f, (n1, m1, g1), (n2, m2, g2) = self.field, self.hnf(), other.hnf()
        return _hnf(f, [(n1 * n2, 0), (n1 * m2, n1 * g2), (m1 * n2, g1 * n2),
                        (m1 * m2 - f.omega_norm * g1 * g2,
                         m1 * g2 + g1 * m2 + f.omega_trace * g1 * g2)])

    def divides(self, other):
        """self | other, i.e. both basis elements of other lie in self."""
        n, m, g = self.hnf()
        on, om, og = other.hnf()
        return on % n == 0 and og % g == 0 and (om - og // g * m) % n == 0

    def factor(self):
        """The factorisation as parts (ell, i, e): self is the product of P^e
        over them, P the i-th prime above ell in primes_above order, ell
        ascending -- the parts `HilbertEigenform._stored_product` reads.  Needs
        the norm to factor over Z.  For ell^e || Nm(self) the ell-part is
        (ell)^(e/2) at an inert ell, P^e at a ramified one and the one
        P^a Pbar^(e-a) dividing self at a split one."""
        out = []
        for ell, e in factorise(self.norm()):
            st = splitting_type(self.field, ell)
            if not st.is_split:
                out.append((ell, 0, e // 2 if st.is_inert else e))
                continue
            a = next(a for a, part in enumerate(_norm_ell_power_ideals(self.field, ell, e))
                     if part.divides(self))
            out += [(ell, i, v) for i, v in enumerate((a, e - a)) if v]
        check = 1
        for ell, i, v in out:
            check *= splitting_type(self.field, ell).primes[i].norm() ** v
        if check != self.norm():
            raise QuadFieldError(f"factorisation failure for {self}")
        return out


class SplitKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True, repr=False, slots=True)
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


@lru_cache(maxsize=None)
def splitting_type(field, ell):
    """Splitting of the prime ell in field; memoised per (d, ell), unbounded."""
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


def _q(z):
    """theta1(z)^2 + theta2(z)^2 = 2 (x^2 + d y^2) / den^2 for z = (x + y sqrt(d))/den."""
    return Fraction(2 * (z.x * z.x + z.field.e * z.y * z.y), z.den * z.den)


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
               key=lambda y: (-y.sign_theta1(), *f.omega_coords(y)))


def totally_positive_generator(ideal):
    """A totally positive generator if one exists, else None (also for a
    non-principal ideal).

    Exhausts sign flips and unit multiples of one generator; complete because
    the sign patterns of units are {±1, ±eps}-patterns.
    """
    try:
        x = find_generator(ideal)
    except NotPrincipalError:
        return None
    eps, _ = ideal.field.fundamental_unit()
    return next((c for c in (x, -x, eps * x, -(eps * x)) if c.is_totally_positive()), None)


@lru_cache(maxsize=None)
def prime_powers(field, ell, e):
    """(P^e, HNF key of P^e) for each prime P above ell, in primes_above
    order (P^0 = O_F).  The one memo of the prime-power ideals above ell:
    every caller, and every form over one field, gets the same tuples; it
    holds one entry for each (field, ell, e) the process has asked for."""
    primes = splitting_type(field, ell).primes
    if e == 0:
        powers = [field.maximal_order()] * len(primes)
    elif e == 1:
        powers = primes
    else:
        powers = [q * p for (q, _), p in zip(prime_powers(field, ell, e - 1), primes)]
    return tuple((q, q.hnf()) for q in powers)


@lru_cache(maxsize=None)
def _norm_ell_power_ideals(field, ell, e):
    """Ideals of norm ell^e supported above ell, as a tuple; at a split ell
    P^a Pbar^(e-a) for a = 0, ..., e."""
    st = splitting_type(field, ell)
    if st.is_split:
        return tuple(prime_powers(field, ell, a)[0][0] * prime_powers(field, ell, e - a)[1][0]
                     for a in range(e + 1))
    if st.is_inert and e % 2:
        return ()
    return (prime_powers(field, ell, e // 2 if st.is_inert else e)[0][0],)


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
