"""Commutative symbolic Hecke algebra with a confluent rewriting normal form.

Operators are formal symbols T, S, U, diamond <.>, scalar R, and sigma, whose
arguments are products of declared prime labels (each carrying a norm) and
units.  Distinct labels are implicitly coprime.  The rewrite rules are

    T(xy) -> T(x) T(y)                 x, y coprime
    T(u)^2 -> S(u)                     u a unit
    T(p^2) -> T(p)^2 - Norm(p) S(p)    p a prime label
    S(x)  -> <x> R(x)

together with full multiplicativity of S, <.>, R and sigma in their argument.
Diamond, R and sigma are invertible central symbols (negative powers allowed);
prime-label exponents above 2 inside a T-argument have no rewrite rule here
and are rejected.

Normal-form generators are T(p), T(u), U(x), D(p), R(p), sigma and the formal
variable X.  In norm-relation contexts the same symbols denote the covariant
(primed) operators; the commutative algebra relations are identical.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class HeckeAlgError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeLabel:
    """Formal prime (or unit) label with a declared absolute norm."""
    name: str
    norm: int
    unit: bool = False
    conj: str | None = None

    def __post_init__(self):
        if not self.unit and self.norm < 2:
            raise HeckeAlgError(f"prime label {self.name} needs norm >= 2")


def _canon_arg(arg):
    """Canonicalise an argument into a sorted tuple of (PrimeLabel, exp)."""
    if isinstance(arg, PrimeLabel):
        items = [(arg, 1)]
    elif isinstance(arg, dict):
        items = list(arg.items())
    else:
        items = list(arg)
    merged = {}
    for lab, e in items:
        if not isinstance(lab, PrimeLabel):
            raise HeckeAlgError(f"argument atom {lab!r} is not a PrimeLabel")
        merged[lab] = merged.get(lab, 0) + int(e)
    return tuple(sorted(((lab, e) for lab, e in merged.items() if e),
                        key=lambda it: it[0].name))


# A generator is (kind, payload): payload is an argument tuple for T/S/U,
# a PrimeLabel for D/R, an int for sigma, None for X.  Generators are
# interned to small ints on first sight, so a monomial is a tuple of
# (generator id, exponent) pairs sorted by id and hashing it never hashes a
# PrimeLabel.  The table only grows; ids are never reused.
_INVERTIBLE = {"D", "R", "G"}
_GEN_IDS = {}          # (kind, payload) -> id
_GENS = []             # id -> (kind, payload)
_INTERN_LOCK = threading.Lock()
_ONE = Fraction(1)


def _gid(kind, payload):
    key = (kind, payload)
    if key not in _GEN_IDS:
        with _INTERN_LOCK:
            if key not in _GEN_IDS:
                _GENS.append(key)
                _GEN_IDS[key] = len(_GENS) - 1
    return _GEN_IDS[key]


class HeckePolynomial:
    """Integer/rational combination of monomials in Hecke symbols and X."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mono: c for mono, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def generator(cls, kind, payload, exp=1):
        return cls({((_gid(kind, payload), exp),): Fraction(1)})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckePolynomial.constant(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return HeckePolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return HeckePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HeckePolynomial({m: c * Fraction(other) for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return HeckePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            raise HeckeAlgError("negative powers of polynomials unsupported")
        out = HeckePolynomial.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckePolynomial.constant(other)
        return isinstance(other, HeckePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0])):
            factors = [str(c)] if c != 1 or not mono else []
            for kind, payload, e in _factors(mono):
                factors.append(_gen_str(kind, payload) + (f"^{e}" if e != 1 else ""))
            bits.append("*".join(factors))
        return " + ".join(bits).replace("+ -", "- ")

    # -- normal form -------------------------------------------------------

    def normalize(self):
        """Normal form in one pass: the product of the (memoised) rewritten
        generator powers, closing T(u) * T(u) -> <u> R(u) for units u, the one
        rule a product of normal forms can trigger again."""
        out = {}
        for mono, c in self.terms.items():
            piece = (((), c),)
            for gid, e in mono:
                piece = _times(piece, _rewrite_power(gid, e))
            for m, v in piece:
                out[m] = out.get(m, 0) + v
        return HeckePolynomial(out)

    def substitute_X(self, value):
        """Replace the formal variable X by another polynomial."""
        out = HeckePolynomial()
        for mono, c in self.terms.items():
            piece = HeckePolynomial.constant(c)
            for gid, e in mono:
                if _GENS[gid][0] == "X":
                    piece = piece * (value ** e)
                else:
                    piece = piece * HeckePolynomial({((gid, e),): Fraction(1)})
            out = out + piece
        return out

    def _split_by(self, kind):
        """{total exponent of `kind`: the polynomial of the remaining factors}."""
        out = {}
        for mono, c in self.terms.items():
            deg = sum(e for gid, e in mono if _GENS[gid][0] == kind)
            rest = tuple((gid, e) for gid, e in mono if _GENS[gid][0] != kind)
            out.setdefault(deg, {})
            out[deg][rest] = out[deg].get(rest, 0) + c
        return {deg: HeckePolynomial(t) for deg, t in sorted(out.items())}

    def sigma_decomposition(self):
        """Split a normalised polynomial by total sigma-exponent."""
        return self._split_by("G")

    def x_coefficients(self):
        """Coefficients by X-degree, as a dict degree -> HeckePolynomial."""
        return self._split_by("X")

    def specialize(self, t_values, s_values, sigma=None, d_values=None, r_values=None):
        """Evaluate a normalised polynomial at eigenvalue data.

        t_values: {label name: value of T(p)};  s_values: {label name: value of
        S(p)} applied to matched D(p)^a R(p)^a pairs.  Unpaired D/R powers need
        explicit d_values/r_values.  X stays formal: the result is a dict
        X-degree -> value.  sigma, if given, maps sigma powers to values.
        """
        out = {}
        for mono, c in self.terms.items():
            val = Fraction(c)
            xdeg = 0
            dr = {}
            for gid, e in mono:
                kind, payload = _GENS[gid]
                if kind == "X":
                    xdeg += e
                elif kind == "T":
                    (lab, k), = payload
                    if k != 1:
                        raise HeckeAlgError("specialize needs a normalised polynomial")
                    val = val * (t_values[lab.name] ** e)
                elif kind in ("D", "R"):
                    dr.setdefault(payload.name, [payload, 0, 0])
                    dr[payload.name][1 if kind == "D" else 2] += e
                elif kind == "G":
                    if sigma is None:
                        raise HeckeAlgError("sigma value missing")
                    val = val * (sigma ** e)
                else:
                    raise HeckeAlgError(f"cannot specialize symbol kind {kind}")
            for name, (lab, dd, rr) in dr.items():
                paired = min(dd, rr)
                if paired:
                    val = val * (s_values[name] ** paired)
                if dd - paired:
                    if not d_values or name not in d_values:
                        raise HeckeAlgError(f"unpaired diamond power at {name}")
                    val = val * (d_values[name] ** (dd - paired))
                if rr - paired:
                    if not r_values or name not in r_values:
                        raise HeckeAlgError(f"unpaired R power at {name}")
                    val = val * (r_values[name] ** (rr - paired))
            out[xdeg] = out.get(xdeg, 0) + val
        return {k: v for k, v in out.items() if v != 0}


def _factors(mono):
    """(kind, payload, exponent) of each factor, in display order."""
    return sorted(((*_GENS[gid], e) for gid, e in mono),
                  key=lambda f: (f[0], _payload_key(f[1])))


def _mono_key(mono):
    return tuple(((kind, _payload_key(payload)), e) for kind, payload, e in _factors(mono))


def _payload_key(payload):
    if isinstance(payload, PrimeLabel):  # sorts like the argument tuple of D(p)
        return ((payload.name, 1),)
    if isinstance(payload, tuple):
        return tuple((lab.name, e) for lab, e in payload)
    return payload


def _gen_str(kind, payload):
    if kind == "X":
        return "X"
    if kind == "G":
        return f"sig({payload})"
    if isinstance(payload, PrimeLabel):
        return f"{kind}({payload.name})"
    arg = "*".join(f"{lab.name}" + (f"^{e}" if e != 1 else "") for lab, e in payload)
    return f"{kind}({arg})"


def _merge_monomials(m1, m2):
    acc = dict(m1)
    for gid, e in m2:
        acc[gid] = acc.get(gid, 0) + e
    out = []
    for gid, e in sorted(acc.items()):
        if e:
            if e < 0 and _GENS[gid][0] not in _INVERTIBLE:
                raise HeckeAlgError(f"negative power of non-invertible symbol {_GENS[gid][0]}")
            out.append((gid, e))
    return tuple(out)


def _monomial(*factors):
    return _merge_monomials((), factors)


def _times(p, q):
    """Product of two normal forms given as (monomial, coefficient) pairs."""
    out = {}
    for m1, c1 in p:
        for m2, c2 in q:
            m = _close_units(_merge_monomials(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return tuple((m, c) for m, c in out.items() if c)


def _close_units(m):
    """T(u)^e -> T(u)^(e mod 2) (<u> R(u))^(e div 2) for every unit label u."""
    for gid, e in m:
        if e > 1 and _GENS[gid][0] == "T" and _GENS[gid][1][0][0].unit:
            u, rest = _GENS[gid][1][0][0], tuple(f for f in m if f[0] != gid)
            pair = ((gid, e % 2), (_gid("D", u), e // 2), (_gid("R", u), e // 2))
            return _close_units(_merge_monomials(rest, pair))
    return m


@lru_cache(maxsize=4096)
def _rewrite_power(gid, e):
    """Normal form of a single generator power, as (monomial, coefficient) pairs."""
    kind, payload = _GENS[gid]
    if kind in ("X", "U") and e < 0:
        raise HeckeAlgError("negative X powers unsupported" if kind == "X"
                            else "U is not invertible")
    if kind in ("X", "G", "U") or (kind in ("D", "R") and isinstance(payload, PrimeLabel)):
        return ((_monomial((gid, e)), _ONE),)
    if kind in ("D", "R", "S"):
        kinds = ("D", "R") if kind == "S" else (kind,)
        return ((_monomial(*[(_gid(kd, lab), k * e) for lab, k in payload for kd in kinds]),
                 _ONE),)
    if kind == "T":
        if e < 0:
            raise HeckeAlgError("T is not invertible")
        out = (((), _ONE),)
        for lab, k in payload:
            if k < 0:
                raise HeckeAlgError("negative exponent inside a T-argument")
            t = _gid("T", ((lab, 1),))
            dr = (_gid("D", lab), _gid("R", lab))
            if lab.unit:
                tot = k * e
                piece = ((_monomial((t, tot % 2), *[(g, tot // 2) for g in dr]), _ONE),)
            elif k == 1:
                piece = ((_monomial((t, e)), _ONE),)
            elif k == 2:
                base = HeckePolynomial({((t, 2),): _ONE, _monomial(*[(g, 1) for g in dr]):
                                        Fraction(-lab.norm)})
                piece = tuple((base ** e).terms.items())
            else:
                raise HeckeAlgError(
                    f"no rewrite rule for T at prime power {lab.name}^{k}")
            out = _times(out, piece)
        return out
    raise HeckeAlgError(f"unknown symbol kind {kind}")


# -- public constructors --------------------------------------------------

def T(arg):
    return HeckePolynomial.generator("T", _canon_arg(arg))


def S(arg):
    return HeckePolynomial.generator("S", _canon_arg(arg))


def U(arg):
    return HeckePolynomial.generator("U", _canon_arg(arg))


def diamond(arg):
    return HeckePolynomial.generator("D", _canon_arg(arg))


def R(arg):
    return HeckePolynomial.generator("R", _canon_arg(arg))


def sigma(ell, exp=1):
    return HeckePolynomial.generator("G", int(ell), exp)


def X():
    return HeckePolynomial.generator("X", None)


def one():
    return HeckePolynomial.constant(1)


def normalize(expr):
    return expr.normalize()


# -- the paper's operator polynomials --------------------------------------

def split_labels(ell, name=None):
    """Conjugate pair of labels for a split rational prime."""
    base = name or f"l{ell}"
    lam = PrimeLabel(base, ell, conj=base + "b")
    lambar = PrimeLabel(base + "b", ell, conj=base)
    return lam, lambar


def inert_label(ell, name=None):
    """Label for the element ell generating an inert prime (norm ell^2)."""
    return PrimeLabel(name or f"q{ell}", ell * ell)


def _rational_prime_arg(ell, splitting, labels=None):
    kind = getattr(splitting, "kind", None)
    kind = kind.value if kind is not None else str(splitting)
    if kind == "split":
        lam, lambar = labels if labels else split_labels(ell)
        return kind, ((lam, 1), (lambar, 1))
    if kind == "inert":
        lab = labels if isinstance(labels, PrimeLabel) else inert_label(ell)
        return kind, ((lab, 1),)
    return kind, None


def asai_euler_symbolic(ell, splitting, labels=None):
    """Degree-4 operator-valued Euler factor at a good rational prime.

    Inert:  (1 - T(l) X + l^2 S(l) X^2)(1 - l^2 S(l) X^2).
    Split:  1 - T(l) X + (T(l)^2 - T(l^2) - l^2 S(l)) X^2
              - l^2 S(l) T(l) X^3 + l^4 S(l)^2 X^4.
    Ramified primes are rejected.  Returns the normalised polynomial.
    """
    ell = int(ell)
    kind, arg = _rational_prime_arg(ell, splitting, labels)
    x = X()
    if kind == "inert":
        p = (one() - T(arg) * x + ell ** 2 * S(arg) * x ** 2) * \
            (one() - ell ** 2 * S(arg) * x ** 2)
        return p.normalize()
    if kind == "split":
        arg2 = tuple((lab, 2 * e) for lab, e in arg)
        p = (one() - T(arg) * x
             + (T(arg) ** 2 - T(arg2) - ell ** 2 * S(arg)) * x ** 2
             - ell ** 2 * S(arg) * T(arg) * x ** 3
             + ell ** 4 * S(arg) ** 2 * x ** 4)
        return p.normalize()
    raise HeckeAlgError(f"Euler factor undefined at a {kind} prime (need ell coprime to Delta)")


def verify_split_x2_identity(lam, lambar):
    """X^2-coefficient identity for split ell = lam*lambar, narrowly principal.

    Checks, after normalisation,
        T(l)^2 - T(l^2) - l^2 S(l)
      = l <lam> R(lam) T(lambar)^2 + l <lambar> R(lambar) T(lam)^2
        - 2 l^2 <l> R(l).
    """
    if lam.unit or lambar.unit or lam.norm != lambar.norm or lam == lambar:
        raise HeckeAlgError("need two distinct conjugate split prime labels")
    ell = lam.norm
    arg = ((lam, 1), (lambar, 1))
    arg2 = ((lam, 2), (lambar, 2))
    lhs = (T(arg) ** 2 - T(arg2) - ell ** 2 * S(arg)).normalize()
    rhs = (ell * diamond(lam) * R(lam) * T(lambar) ** 2
           + ell * diamond(lambar) * R(lambar) * T(lam) ** 2
           - 2 * ell ** 2 * diamond(arg) * R(arg)).normalize()
    return lhs == rhs


def norm_relation_symbolic(ell, j, k, kprime, splitting="inert", labels=None):
    """The Euler-system norm-relation operator, normalised.

    Returns  l^j sigma_l [ (l-1)(1 - l^{-2j} <l^{-1}> R'(l) sigma_l^{-2})
                           - l P'_l(l^{-1-j} sigma_l^{-1}) ]
    as a Laurent polynomial in sigma_l whose coefficients are Hecke
    polynomials.  Symbols denote the covariant operators here; the
    commutative relations used for normalisation are the same.
    """
    ell = int(ell)
    if not 0 <= j <= min(k, kprime):
        raise HeckeAlgError(f"need 0 <= j <= min(k, k'), got j={j}")
    kind, arg = _rational_prime_arg(ell, splitting, labels)
    if arg is None:
        raise HeckeAlgError("norm relation needs an unramified prime")
    labs = tuple(lab for lab, _ in arg) if kind == "split" else arg[0][0]
    p = asai_euler_symbolic(ell, kind, labs)
    sub = Fraction(1, ell ** (1 + j)) * sigma(ell, -1)
    p_at = p.substitute_X(sub)
    bracket = (ell - 1) * (one() - Fraction(1, ell ** (2 * j)) * S(arg) * sigma(ell, -2)) \
        - ell * p_at
    return (ell ** j * sigma(ell) * bracket).normalize()
