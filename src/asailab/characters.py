"""Dirichlet characters of (Z/m)^x with exact root-of-unity values.

The unit group is decomposed into cyclic factors (CRT plus primitive roots;
2-power moduli use the (-1, 5) generators).  A character is stored by its
exponent on each cyclic generator and tabulated once over the unit group; its
value at a is the root of unity zeta_ord^e, kept exactly as the pair (e, ord).
"""

import math
from functools import lru_cache

import mpmath

from .arith import divisors, factorise
from .precision import mp_context, working_precision


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


class RootOfUnity:
    """Exact root of unity exp(2*pi*i*e/n)."""

    __slots__ = ("e", "n")

    def __init__(self, e, n):
        n = int(n)
        e = int(e) % n
        g = math.gcd(e, n)  # n when e = 0, so zeta^0 is stored as (0, 1)
        self.e, self.n = e // g, n // g

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

    def to_mpc(self):
        """exp(2 pi i e/n) at the working precision, read from one table of
        values keyed by (e, n, precision)."""
        return _root_value(self.e, self.n, working_precision())


@lru_cache(maxsize=4096)
def _root_value(e, n, prec):
    with mp_context(prec):
        return mpmath.exp(2j * mpmath.pi * e / n)


class DirichletCharacter:
    """Character of (Z/m)^x given by exponents on the cyclic generators.

    Its values are tabulated once: `_values[a]` is the k with chi(a) = zeta_order^k,
    for each unit a mod m."""

    __slots__ = ("modulus", "exponents", "order", "_values")

    def __init__(self, modulus, exponents):
        self.modulus = m = int(modulus)
        gens = unit_group_structure(m)
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(gens):
            raise CharacterError(f"need {len(gens)} exponents for modulus {m}")
        self.exponents = tuple(e % n for e, (_, n) in zip(exponents, gens))
        self.order = math.lcm(*(n // math.gcd(e, n) for e, (_, n) in zip(self.exponents, gens)))
        # walk (Z/m)^x from 1 along each generator g: chi(g) = zeta_n^e = zeta_order^step
        values = {1 % m: 0}
        for e, (g, n) in zip(self.exponents, gens):
            step, walked = e * self.order // n, {}
            for a, k in values.items():
                for _ in range(n):
                    walked[a] = k
                    a, k = a * g % m, (k + step) % self.order
            values = walked
        self._values = values

    @classmethod
    def all_characters(cls, modulus):
        gens = unit_group_structure(modulus)
        chars = [()]
        for _, order in gens:
            chars = [c + (e,) for c in chars for e in range(order)]
        return [cls(modulus, c) for c in chars]

    def __call__(self, a):
        """Exact value at a, or None when gcd(a, m) > 1."""
        k = self._values.get(int(a) % self.modulus)
        return None if k is None else RootOfUnity(k, self.order)

    def value_mpc(self, a):
        v = self(a)
        if v is None:
            return mpmath.mpc(0)
        return v.to_mpc()

    def inverse(self):
        gens = unit_group_structure(self.modulus)
        return DirichletCharacter(self.modulus,
                                  [(-e) % order for e, (_, order) in zip(self.exponents, gens)])

    def conductor(self):
        """Smallest f | m with the character trivial on units = 1 mod f."""
        return next(f for f in divisors(self.modulus)
                    if all(k == 0 for a, k in self._values.items() if a % f == 1 % f))

    def is_primitive(self):
        return self.conductor() == self.modulus

    def __eq__(self, other):
        return isinstance(other, DirichletCharacter) and \
            self.modulus == other.modulus and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exponents {self.exponents})"
