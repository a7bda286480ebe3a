"""Tensor induction of 2-dimensional Frobenius data and the degree-4 Asai
characteristic polynomials, plus evaluation of Euler-system norm factors in
finite-level group rings.

Basis convention for the induced 4-dimensional space is
(e1 x e1, e2 x e1, e1 x e2, e2 x e2): the split case is then the plain
Kronecker product and the inert case a partial swap.

Normalisation: the characteristic polynomials emitted here include the
(t1 + t2) twist, i.e. every Frobenius eigenvalue of the un-twisted tensor
induction is scaled by ell^{-(t+t')}.  Equivalently T(ell) specialises to
ell^{-(t+t')} lambda((ell)) and ell^2 S(ell) to ell^{k+k'+2} eps((ell)).
The tensor-induction route applies the twist to the coefficients, not to
the matrix: the X^k coefficient of the untwisted determinant is scaled by
ell^{-k(t+t')}.
"""

import math
from fractions import Fraction

from .coeffs import QuadElt, _coords, _plus, _times, to_mpf
from .quadfield import splitting_type, totally_positive_generator


class AsaiRepError(ValueError):
    pass


class HypothesisError(AsaiRepError):
    """A theorem hypothesis (e.g. narrow principality) fails for the input."""


# -- exact small matrices over Z[sqrt(e)]: entries are pairs (x, y) = x + y sqrt(e) --

def _dot(us, vs, e):
    """sum u * v over the paired entries of us and vs, as a pair."""
    x = y = 0
    for (a, b), (c, d) in zip(us, vs):
        x += a * c + e * b * d
        y += a * d + b * c
    return x, y


def companion_frobenius(trace, det):
    """(D, N) with N / D the 2x2 matrix of the given trace and determinant:
    these are canonical triples (x, y, den), D is the lcm of their dens and N
    is integral."""
    (tx, ty, tq), (dx, dy, dq) = trace, det
    den = tq * dq // math.gcd(tq, dq)
    s, r = den // tq, den // dq
    return den, [[(0, 0), (-dx * r, -dy * r)], [(den, 0), (tx * s, ty * s)]]


_BASIS = [(0, 0), (1, 0), (0, 1), (1, 1)]  # (i, j) for e_i x e_j


def tensor_induce_split(m1, m2, e):
    """Kronecker product in the fixed basis: e_i x e_j -> (M1 e_i) x (M2 e_j)."""
    if len(m1) != 2 or len(m2) != 2:
        raise AsaiRepError("tensor induction needs 2x2 blocks")
    return [[_dot((m1[ip][i],), (m2[jp][j],), e) for (i, j) in _BASIS] for (ip, jp) in _BASIS]


def tensor_induce_inert(m):
    """Matrix of the outer Frobenius class: e_i x e_j -> (M e_j) x e_i."""
    if len(m) != 2:
        raise AsaiRepError("tensor induction needs a 2x2 block")
    return [[m[ip][j] if jp == i else (0, 0) for (i, j) in _BASIS] for (ip, jp) in _BASIS]


def charpoly_reversed(a, e):
    """Coefficients [c0..cn] of det(1 - X*A) for a square matrix A over
    Z[sqrt(e)] (e = 0 for Z), each entry and each c_k a pair (x, y).

    With power traces p_k = tr(A^k), k c_k = -(p_1 c_{k-1} + ... + p_k c_0)
    (Faddeev-LeVerrier; Cohen, GTM 138, section 2.2).  tr(A^k) is the
    entrywise sum of A^i * (A^j)^T with i + j = k, so only the powers up to
    A^ceil(n/2) are formed: for n = 4, the single product A^2.  c_k lies in
    Z[sqrt(e)] with the entries of A, so both of its coordinates divide
    exactly by k.
    """
    n = len(a)
    cols = list(zip(*a))
    powers = [None, a]
    while len(powers) <= (n + 1) // 2:
        powers.append([[_dot(row, col, e) for col in cols] for row in powers[-1]])
    traces = [None, _dot([a[i][i] for i in range(n)], [(1, 0)] * n, e)]
    for k in range(2, n + 1):
        x, y = powers[(k + 1) // 2], powers[k // 2]
        traces.append(_dot([u for row in x for u in row],
                           [u for col in zip(*y) for u in col], e))
    coeffs = [(1, 0)]
    for k in range(1, n + 1):
        x, y = _dot(traces[1:k + 1], coeffs[::-1], e)
        coeffs.append((-x // k, -y // k))
    return coeffs


class AsaiCharPoly:
    """Degree-4 polynomial det(1 - X Frob^{-1} | Asai), constant term 1."""

    __slots__ = ("coeffs", "kind")

    def __init__(self, coeffs, kind):
        if len(coeffs) != 5:
            raise AsaiRepError("Asai characteristic polynomial must have degree 4")
        if coeffs[0] != 1:
            raise AsaiRepError("constant term must be 1")
        self.coeffs = list(coeffs)
        self.kind = kind

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, AsaiCharPoly):
            other = other.coeffs
        return len(self.coeffs) == len(other) and \
            all(a == b for a, b in zip(self.coeffs, other))

    def __repr__(self):
        return " + ".join(f"({c})*X^{d}" for d, c in enumerate(self.coeffs) if c != 0)


def _local_data(form, ell):
    """The splitting type of ell and [(lambda(P), eps(P), Nm(P))] for the primes
    above it; the one refusal of an ell that ramifies or divides the level."""
    st = splitting_type(form.field, ell)
    if st.is_ramified:
        raise AsaiRepError(f"ell = {ell} ramifies in Q(sqrt({form.field.d}))")
    if form.level.norm() % ell == 0:
        raise AsaiRepError(f"ell = {ell} divides the level")
    return st, [(form.lambda_of(p), form.eps_of(p), p.norm()) for p in st.primes]


def asai_charpoly(form, ell):
    """P_ell(F, X) by eigenvalue substitution into the operator Euler factor.

    Split:  1 - T X + (T^2 - T2 - l^2 S) X^2 - l^2 S T X^3 + l^4 S^2 X^4
    Inert:  (1 - T X + l^2 S X^2)(1 - l^2 S X^2)
    with T = l^{-(t+t')} lambda((l)), T2 = l^{-2(t+t')} lambda((l)^2) and
    S = l^{k+k'} eps((l)), on the triples (x, y, den) of (x + y sqrt(e)) / den,
    the twist an integer factor of x, y or den; QuadElts are built last.
    """
    ell = int(ell)
    st, locs = _local_data(form, ell)
    w, cf = form.weight, form.coefficient_field
    e, t = cf.e or 0, w.t1 + w.t2
    tw = ell ** max(-t, 0), 0, ell ** max(t, 0)   # l^{-(t+t')}
    ls = ell ** (w.k + w.kprime + 2), 0, 1        # l^2 S = ls eps((l))
    (lam1, eps1), *rest = [(_coords(lam), _coords(eps)) for lam, eps, _ in locs]
    if st.is_split:
        (lam2, eps2), = rest
        t_val, nw = _times(tw, _times(lam1, lam2, e), e), ell ** (w.w - 1)
        # lambda(P^2) = lambda(P)^2 - Nm(P)^{w-1} eps(P)
        lam_2 = _times(_plus(_times(lam1, lam1, e), eps1, -nw),
                       _plus(_times(lam2, lam2, e), eps2, -nw), e)
        l2s = _times(ls, _times(eps1, eps2, e), e)
        # T^2 - T2 - l^2 S
        c2 = _plus(_plus(_times(t_val, t_val, e), _times(_times(tw, tw, e), lam_2, e), -1),
                   l2s, -1)
        signs = 1, -1, 1, -1, 1
    else:
        t_val, l2s = _times(tw, lam1, e), _times(ls, eps1, e)
        c2, signs = (0, 0, 1), (1, -1, 1, 1, -1)   # the X^2 terms cancel
    coeffs = (1, 0, 1), t_val, c2, _times(l2s, t_val, e), _times(l2s, l2s, e)
    return AsaiCharPoly([QuadElt.from_ints(sign * x, sign * y, den, cf)
                         for sign, (x, y, den) in zip(signs, coeffs)], st.kind.value)


def asai_charpoly_via_induction(form, ell):
    """P_ell(F, X) as det(1 - X * ell^{-(t+t')} A) of the tensor-induced matrix A.

    The characteristic polynomial is a generic one (charpoly_reversed) of the
    untwisted A, whose entries are the Hecke data themselves: A = N / D for
    the integral N induced from the companion matrices cleared to their
    denominators.  The scale s = ell^{-(t+t')} / D enters afterwards, since
    det(1 - X s N) has coefficient c_k(N) s^k at X^k.  Nothing here uses the
    Hecke-substitution formulas of asai_charpoly, so the two routes check
    each other.
    """
    ell = int(ell)
    st, locs = _local_data(form, ell)
    w, cf = form.weight, form.coefficient_field
    e = cf.e or 0
    blocks = [companion_frobenius(_coords(lam), _times((n ** (w.w - 1), 0, 1), _coords(eps), e))
              for lam, eps, n in locs]
    if st.is_split:
        (d1, m1), (d2, m2) = blocks
        den, a = d1 * d2, tensor_induce_split(m1, m2, e)
    else:
        (den, m), = blocks
        a = tensor_induce_inert(m)
    t = w.t1 + w.t2
    num, den = ell ** max(-t, 0), den * ell ** max(t, 0)
    return AsaiCharPoly([QuadElt.from_ints(x * num ** k, y * num ** k, den ** k, cf)
                         for k, (x, y) in enumerate(charpoly_reversed(a, e))], st.kind.value)


def verify_proj_Pl(form, ell):
    """Exact agreement of the Hecke-substitution and tensor-induction routes."""
    return asai_charpoly(form, ell) == asai_charpoly_via_induction(form, ell)


# -- group rings of (Z/m)^x --------------------------------------------------

class GroupRingElement:
    """Element of the group algebra of (Z/m)^x: a coefficient at each class."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs=None):
        self.modulus = int(modulus)
        self.coeffs = {}
        for a, c in (coeffs or {}).items():
            self._check_unit(a)
            if c != 0:
                self.coeffs[a % self.modulus] = c

    def _check_unit(self, a):
        if math.gcd(a, self.modulus) != 1:
            raise AsaiRepError(f"{a} is not a unit mod {self.modulus}")

    @classmethod
    def sigma(cls, modulus, a, exponent):
        """The class of a^exponent, with coefficient 1."""
        return cls(modulus, {pow(int(a), exponent, modulus): Fraction(1)})

    def __add__(self, other):
        if other.modulus != self.modulus:
            raise AsaiRepError("mixed group-ring moduli")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return GroupRingElement(self.modulus, out)

    def __mul__(self, scalar):
        return GroupRingElement(self.modulus, {a: c * scalar for a, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.modulus == other.modulus \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus, frozenset(self.coeffs.items())))

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*[{a}]" for a, c in sorted(self.coeffs.items()))

    def apply_character(self, chi):
        """Complex value sum_a coeff(a) * chi(a)."""
        import mpmath
        from .precision import mp_context
        with mp_context():
            acc = mpmath.mpc(0)
            for a, c in self.coeffs.items():
                acc += to_mpf(c) * chi.value_mpc(a)
            return acc

    def to_json(self):
        from .coeffs import format_rational

        def enc(c):
            return c.to_json() if isinstance(c, QuadElt) else format_rational(c)
        return {str(a): enc(c) for a, c in sorted(self.coeffs.items())}


def euler_system_norm_factor(form, ell, j, m):
    """The tame norm-relation scalar in the group ring of (Z/m)^x.

    Evaluates  l^j sigma_l [ (l-1)(1 - l^{k+k'-2j} eps((l)) sigma_l^{-2})
                             - l * P_l(F, l^{-1-j} sigma_l^{-1}) ]
    with sigma_l the class of l.  Hypotheses: l coprime to m, l good and
    unramified as `_local_data` decides for P_l, and l inert, or split with
    both primes above it narrowly principal.  The seven terms go to their
    classes sigma_l^r mod m in one pass, as integer coordinates over the lcm
    of their denominators, and each coefficient becomes a QuadElt once.
    """
    ell, j, m = int(ell), int(j), int(m)
    if math.gcd(ell, m) != 1:
        raise AsaiRepError(f"need ell = {ell} coprime to m and the level")
    w = form.weight
    if not 0 <= j <= min(w.k, w.kprime):
        raise AsaiRepError(f"need 0 <= j <= min(k, k') = {min(w.k, w.kprime)}")
    st, locs = _local_data(form, ell)
    if st.is_split and None in map(totally_positive_generator, st.primes):
        raise HypothesisError(f"prime above {ell} is not narrowly principal; hypothesis fails")
    cf = form.coefficient_field
    e = cf.e or 0
    eps_l = 1, 0, 1  # eps((ell))
    for _, eps, _ in locs:
        eps_l = _times(eps_l, _coords(eps), e)
    # the seven terms as (exponent of sigma_l, x, y, den) of (x + y sqrt(e)) / den
    lj, lk = ell ** j, (ell - 1) * ell ** (w.k + w.kprime - j)
    terms = [(1, (ell - 1) * lj, 0, 1), (-1, -lk * eps_l[0], -lk * eps_l[1], eps_l[2])]
    terms += [(1 - i, -ell * lj * c.x, -ell * lj * c.y, c.den * ell ** ((1 + j) * i))
              for i, c in enumerate(asai_charpoly(form, ell).coeffs)]
    den = math.lcm(*(q for *_, q in terms))
    acc = {}
    for r, x, y, q in terms:
        key, s = pow(ell, r, m), den // q
        u, v = acc.get(key, (0, 0))
        acc[key] = u + x * s, v + y * s
    return GroupRingElement(m, {key: QuadElt.from_ints(x, y, den, cf)
                                for key, (x, y) in acc.items() if x or y})
