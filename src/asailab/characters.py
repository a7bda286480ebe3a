"""Dirichlet characters of (Z/m)^x with exact root-of-unity values.

The unit group is decomposed into cyclic factors (CRT plus primitive roots;
2-power moduli use the (-1, 5) generators).  A character is stored by its
exponent on each cyclic generator; its value at a is the root of unity
zeta_ord^e, kept exactly as the pair (e, ord).
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import divisors, factorise
from .precision import mp_context


class CharacterError(ValueError):
    pass


def _primitive_root(pe, p):
    phi = pe - pe // p
    factors = [q for q, _ in factorise(phi)]
    for g in range(2, pe):
        if math.gcd(g, pe) != 1:
            continue
        if all(pow(g, phi // q, pe) != 1 for q in factors):
            return g
    raise CharacterError(f"no primitive root mod {pe}")


@lru_cache(maxsize=None)
def unit_group_structure(m):
    """Cyclic decomposition of (Z/m)^x: list of (generator mod m, order)."""
    m = int(m)
    if m < 1:
        raise CharacterError("modulus must be >= 1")
    if m == 1:
        return ()
    gens = []
    for p, e in factorise(m):
        pe = p ** e
        rest = m // pe
        def lift(g):
            # CRT: g mod pe, 1 mod rest
            if rest == 1:
                return g % m
            inv = pow(pe, -1, rest)
            return (g + pe * ((1 - g) * inv % rest)) % m
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((lift(3), 2))
            else:
                gens.append((lift(pe - 1), 2))
                gens.append((lift(5), 2 ** (e - 2)))
        else:
            g = _primitive_root(pe, p)
            gens.append((lift(g), pe - pe // p))
    return tuple(gens)


@lru_cache(maxsize=None)
def _discrete_log_table(m):
    """Map a -> exponent tuple over the cyclic generators of (Z/m)^x."""
    gens = unit_group_structure(m)
    table = {1 % m: (0,) * len(gens)}
    frontier = [(1 % m, (0,) * len(gens))]
    # enumerate the whole group by multiplying generators
    for i, (g, order) in enumerate(gens):
        new = dict(table)
        for a, exps in table.items():
            x = a
            for e in range(1, order):
                x = (x * g) % m
                ne = list(exps)
                ne[i] = e
                new[x] = tuple(ne)
        table = new
    if len(table) != _euler_phi(m):
        raise CharacterError(f"unit group enumeration failed mod {m}")
    return table


def _euler_phi(m):
    out = m
    for p, _ in factorise(m):
        out -= out // p
    return out


class RootOfUnity:
    """Exact root of unity exp(2*pi*i*e/n)."""

    __slots__ = ("e", "n")

    def __init__(self, e, n):
        n = int(n)
        e = int(e) % n
        g = math.gcd(e, n) or n
        self.e, self.n = e // g if g else 0, n // g if g else 1
        if self.e == 0:
            self.n = 1

    def __mul__(self, other):
        if isinstance(other, RootOfUnity):
            n = self.n * other.n // math.gcd(self.n, other.n)
            return RootOfUnity(self.e * (n // self.n) + other.e * (n // other.n), n)
        return NotImplemented

    def __pow__(self, k):
        return RootOfUnity(self.e * int(k), self.n)

    def inverse(self):
        return RootOfUnity(-self.e, self.n)

    def __eq__(self, other):
        if isinstance(other, RootOfUnity):
            return self.e == other.e and self.n == other.n
        if other == 1:
            return self.e == 0
        if other == -1:
            return (self.e, self.n) == (1, 2)
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.n))

    def __repr__(self):
        if self.e == 0:
            return "1"
        if (self.e, self.n) == (1, 2):
            return "-1"
        return f"zeta({self.n})^{self.e}"

    def is_real(self):
        return self.n in (1, 2)

    def as_rational(self):
        if self.n == 1:
            return Fraction(1)
        if self.n == 2:
            return Fraction(-1)
        raise CharacterError(f"{self} is not rational")

    def to_mpc(self, prec=None):
        with mp_context(prec):
            return mpmath.exp(2j * mpmath.pi * self.e / self.n)


class DirichletCharacter:
    """Character of (Z/m)^x given by exponents on the cyclic generators."""

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus, exponents):
        self.modulus = int(modulus)
        gens = unit_group_structure(self.modulus)
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(gens):
            raise CharacterError(f"need {len(gens)} exponents for modulus {self.modulus}")
        self.exponents = tuple(e % order for e, (_, order) in zip(exponents, gens))

    @classmethod
    def trivial(cls, modulus):
        return cls(modulus, [0] * len(unit_group_structure(modulus)))

    @classmethod
    def all_characters(cls, modulus):
        gens = unit_group_structure(modulus)
        chars = [()]
        for _, order in gens:
            chars = [c + (e,) for c in chars for e in range(order)]
        return [cls(modulus, c) for c in chars]

    @property
    def order(self):
        gens = unit_group_structure(self.modulus)
        n = 1
        for e, (_, order) in zip(self.exponents, gens):
            if e:
                k = order // math.gcd(e, order)
                n = n * k // math.gcd(n, k)
        return n

    def __call__(self, a):
        """Exact value at a, or None when gcd(a, m) > 1."""
        a = int(a) % self.modulus
        if self.modulus == 1:
            return RootOfUnity(0, 1)
        if math.gcd(a, self.modulus) != 1:
            return None
        gens = unit_group_structure(self.modulus)
        exps = _discrete_log_table(self.modulus)[a]
        val = RootOfUnity(0, 1)
        for e_char, e_elt, (_, order) in zip(self.exponents, exps, gens):
            val = val * RootOfUnity(e_char * e_elt, order)
        return val

    def value_mpc(self, a, prec=None):
        v = self(a)
        if v is None:
            return mpmath.mpc(0)
        return v.to_mpc(prec)

    def inverse(self):
        gens = unit_group_structure(self.modulus)
        return DirichletCharacter(self.modulus,
                                  [(-e) % order for e, (_, order) in zip(self.exponents, gens)])

    def conductor(self):
        """Smallest f | m with the character trivial on units = 1 mod f."""
        for f in divisors(self.modulus):
            if all(self(a) == 1 for a in range(1, self.modulus + 1)
                   if math.gcd(a, self.modulus) == 1 and a % f == 1 % f):
                return f
        return self.modulus

    def is_primitive(self):
        return self.conductor() == self.modulus

    def __eq__(self, other):
        return isinstance(other, DirichletCharacter) and \
            self.modulus == other.modulus and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exponents {self.exponents})"


def kronecker_symbol(a, n):
    """Kronecker symbol (a/n); the quadratic character attached to a discriminant."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0
