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

from fractions import Fraction

from .coeffs import QuadElt
from .quadfield import totally_positive_generator, NotPrincipalError


class AsaiRepError(ValueError):
    pass


class HypothesisError(AsaiRepError):
    """A theorem hypothesis (e.g. narrow principality) fails for the input."""


# -- exact small matrices (lists of lists over Fraction/QuadElt) ------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def companion_frobenius(trace, det):
    """2x2 matrix with the given trace and determinant."""
    return [[trace * 0, -det], [trace * 0 + 1, trace]]


_BASIS = [(0, 0), (1, 0), (0, 1), (1, 1)]  # (i, j) for e_i x e_j


def tensor_induce_split(m1, m2):
    """Kronecker product in the fixed basis: e_i x e_j -> (M1 e_i) x (M2 e_j)."""
    if len(m1) != 2 or len(m2) != 2:
        raise AsaiRepError("tensor induction needs 2x2 blocks")
    out = []
    for (ip, jp) in _BASIS:
        out.append([m1[ip][i] * m2[jp][j] for (i, j) in _BASIS])
    return out


def tensor_induce_inert(m):
    """Matrix of the outer Frobenius class: e_i x e_j -> (M e_j) x e_i."""
    if len(m) != 2:
        raise AsaiRepError("tensor induction needs a 2x2 block")
    zero = m[0][0] * 0
    out = []
    for (ip, jp) in _BASIS:
        row = []
        for (i, j) in _BASIS:
            row.append(m[ip][j] if jp == i else zero)
        out.append(row)
    return out


def charpoly_reversed(a):
    """Coefficients [c0..cn] of det(1 - X*A), exact, by Newton's identities.

    With power traces p_k = tr(A^k), k c_k = -(p_1 c_{k-1} + ... + p_k c_0)
    (Faddeev-LeVerrier; Cohen, GTM 138, section 2.2).  tr(A^k) is the
    entrywise sum of A^i * (A^j)^T with i + j = k, so only the powers up to
    A^ceil(n/2) are formed: for n = 4, the single product A^2.  The divisions
    by k need a ring containing Q.
    """
    n = len(a)
    zero = a[0][0] * 0
    powers = [None, a]
    while len(powers) <= (n + 1) // 2:
        powers.append(mat_mul(powers[-1], a))
    traces = [None, sum((a[i][i] for i in range(n)), zero)]
    for k in range(2, n + 1):
        x, y = powers[(k + 1) // 2], powers[k // 2]
        traces.append(sum((x[i][j] * y[j][i] for i in range(n) for j in range(n)), zero))
    coeffs = [zero + 1]
    for k in range(1, n + 1):
        acc = sum((traces[i] * coeffs[k - i] for i in range(1, k + 1)), zero)
        coeffs.append(acc * Fraction(-1, k))
    return coeffs


class AsaiCharPoly:
    """Degree-4 polynomial det(1 - X Frob^{-1} | Asai), constant term 1."""

    __slots__ = ("coeffs", "ell", "kind")

    def __init__(self, coeffs, ell=None, kind=None):
        if len(coeffs) != 5:
            raise AsaiRepError("Asai characteristic polynomial must have degree 4")
        if coeffs[0] != 1:
            raise AsaiRepError("constant term must be 1")
        self.coeffs = list(coeffs)
        self.ell = ell
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

    def divide_by_linear(self, root_coeff):
        """Exact quotient by (1 - root_coeff*X); raises if not divisible."""
        # synthetic division in the variable X for polynomials with c0 = 1
        quot = [self.coeffs[0]]
        for d in range(1, 5):
            quot.append(self.coeffs[d] + quot[-1] * root_coeff)
        if quot[-1] != 0:
            raise AsaiRepError("polynomial is not divisible by the given linear factor")
        return quot[:-1]


def _local_data(form, ell):
    """[(lambda(P), eps(P), Nm(P))] for the primes above a good ell, plus weight data."""
    st = form.field.splitting_type(ell)
    if st.is_ramified:
        raise AsaiRepError(f"ell = {ell} ramifies in Q(sqrt({form.field.d}))")
    if form.level.norm() % ell == 0:
        raise AsaiRepError(f"ell = {ell} divides the level")
    out = []
    for p in st.primes:
        out.append((form.lambda_of(p), form.eps_of(p), p.norm()))
    return st, out


def asai_charpoly(form, ell):
    """P_ell(F, X) by eigenvalue substitution into the operator Euler factor.

    Split:  1 - T X + (T^2 - T2 - l^2 S) X^2 - l^2 S T X^3 + l^4 S^2 X^4
    Inert:  (1 - T X + l^2 S X^2)(1 - l^2 S X^2)
    with T = l^{-(t+t')} lambda((l)), T2 = l^{-2(t+t')} lambda((l)^2) and
    S = l^{k+k'} eps((l)).
    """
    ell = int(ell)
    st, locs = _local_data(form, ell)
    w = form.weight
    kk = w.k + w.kprime
    tw = Fraction(ell) ** -(w.t1 + w.t2)
    if st.is_split:
        (lam1, eps1, _), (lam2, eps2, _) = locs
        t_val = tw * lam1 * lam2
        # lambda(P^2) = lambda(P)^2 - Nm(P)^{w-1} eps(P)
        lam1_2 = lam1 * lam1 - ell ** (w.w - 1) * eps1
        lam2_2 = lam2 * lam2 - ell ** (w.w - 1) * eps2
        t2_val = tw * tw * lam1_2 * lam2_2
        s_val = ell ** kk * eps1 * eps2
        coeffs = [t_val * 0 + 1,
                  -t_val,
                  t_val * t_val - t2_val - ell ** 2 * s_val,
                  -(ell ** 2) * s_val * t_val,
                  ell ** 4 * s_val * s_val]
        return AsaiCharPoly(coeffs, ell, "split")
    lam, eps, _ = locs[0]
    t_val = tw * lam
    s_val = ell ** kk * eps
    l2s = ell ** 2 * s_val
    # (1 - T X + l2s X^2)(1 - l2s X^2)
    coeffs = [t_val * 0 + 1,
              -t_val,
              l2s - l2s,
              l2s * t_val,
              -(l2s * l2s)]
    return AsaiCharPoly(coeffs, ell, "inert")


def asai_charpoly_via_induction(form, ell):
    """P_ell(F, X) as det(1 - X * ell^{-(t+t')} A) of the tensor-induced matrix A.

    The characteristic polynomial is a generic one (charpoly_reversed) of the
    untwisted A, whose entries are the Hecke data themselves; the twist
    tw = ell^{-(t+t')} enters afterwards, since det(1 - X tw A) has
    coefficient c_k(A) tw^k at X^k.  Nothing here uses the Hecke-substitution
    formulas of asai_charpoly, so the two routes check each other.
    """
    ell = int(ell)
    st, locs = _local_data(form, ell)
    w = form.weight
    if st.is_split:
        (lam1, eps1, n1), (lam2, eps2, n2) = locs
        m1 = companion_frobenius(lam1, Fraction(n1 ** (w.w - 1)) * eps1)
        m2 = companion_frobenius(lam2, Fraction(n2 ** (w.w - 1)) * eps2)
        a = tensor_induce_split(m1, m2)
    else:
        lam, eps, n = locs[0]
        m = companion_frobenius(lam, Fraction(n ** (w.w - 1)) * eps)
        a = tensor_induce_inert(m)
    tw = Fraction(ell) ** -(w.t1 + w.t2)
    coeffs = [c * tw ** k for k, c in enumerate(charpoly_reversed(a))]
    return AsaiCharPoly(coeffs, ell, st.kind.value)


def verify_proj_Pl(form, ell):
    """Exact agreement of the Hecke-substitution and tensor-induction routes."""
    return asai_charpoly(form, ell) == asai_charpoly_via_induction(form, ell)


# -- group rings of (Z/m)^x --------------------------------------------------

class GroupRingElement:
    """Element of the group algebra of (Z/m)^x; multiplication is convolution."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs=None):
        self.modulus = int(modulus)
        self.coeffs = {}
        for a, c in (coeffs or {}).items():
            self._check_unit(a)
            if c != 0:
                self.coeffs[a % self.modulus] = c

    def _check_unit(self, a):
        from math import gcd
        if self.modulus > 1 and gcd(a, self.modulus) != 1:
            raise AsaiRepError(f"{a} is not a unit mod {self.modulus}")

    @classmethod
    def unit(cls, modulus, a=1, coeff=Fraction(1)):
        return cls(modulus, {a % modulus if modulus > 1 else 0: coeff})

    @classmethod
    def sigma(cls, modulus, a, exponent=1):
        if modulus == 1:
            return cls(1, {0: Fraction(1)})
        a = pow(int(a) % modulus, exponent, modulus) if exponent >= 0 else \
            pow(pow(int(a), -1, modulus), -exponent, modulus)
        return cls(modulus, {a: Fraction(1)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return GroupRingElement(self.modulus, out)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement(self.modulus, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadElt)):
            return GroupRingElement(self.modulus,
                                    {a: c * other for a, c in self.coeffs.items()})
        other = self._coerce(other)
        out = {}
        mod = self.modulus
        for a, c in self.coeffs.items():
            for b, d in other.coeffs.items():
                key = (a * b) % mod if mod > 1 else 0
                out[key] = out.get(key, Fraction(0)) + c * d
        return GroupRingElement(mod, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, GroupRingElement):
            if other.modulus != self.modulus:
                raise AsaiRepError("mixed group-ring moduli")
            return other
        if isinstance(other, (int, Fraction, QuadElt)):
            return GroupRingElement.unit(self.modulus, 1, other if other else Fraction(0)) \
                if other != 0 else GroupRingElement(self.modulus)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
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

    def apply_character(self, chi, prec=None):
        """Complex value sum_a coeff(a) * chi(a)."""
        import mpmath
        from .precision import mp_context
        with mp_context(prec):
            acc = mpmath.mpc(0)
            for a, c in self.coeffs.items():
                cval = c.to_mpf() if isinstance(c, QuadElt) else \
                    mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
                acc += cval * chi.value_mpc(a if self.modulus > 1 else 1)
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
    with sigma_l the class of l.  Hypotheses: l coprime to m and to the
    level norm, and l inert, or split with both primes above it narrowly
    principal.
    """
    from math import gcd
    ell, j, m = int(ell), int(j), int(m)
    if gcd(ell, m) != 1 or form.level.norm() % ell == 0:
        raise AsaiRepError(f"need ell = {ell} coprime to m and the level")
    w = form.weight
    if not 0 <= j <= min(w.k, w.kprime):
        raise AsaiRepError(f"need 0 <= j <= min(k, k') = {min(w.k, w.kprime)}")
    st = form.field.splitting_type(ell)
    if st.is_ramified:
        raise AsaiRepError(f"ell = {ell} is ramified")
    if st.is_split:
        for p in st.primes:
            try:
                gen = totally_positive_generator(p)
            except NotPrincipalError:
                gen = None
            if gen is None:
                raise HypothesisError(
                    f"prime above {ell} is not narrowly principal; hypothesis fails")
    pl = asai_charpoly(form, ell)
    eps_l = _eps_rational(form, st)
    kk2j = w.k + w.kprime - 2 * j
    sig = lambda e: GroupRingElement.sigma(m, ell, e)
    one = GroupRingElement.unit(m)
    p_at = GroupRingElement(m)
    for i, c in enumerate(pl.coeffs):
        p_at = p_at + sig(-i) * (c * Fraction(1, ell ** ((1 + j) * i)))
    bracket = (one - sig(-2) * (Fraction(ell ** kk2j) * eps_l)) * Fraction(ell - 1) \
        - p_at * Fraction(ell)
    return sig(1) * Fraction(ell ** j) * bracket


def _eps_rational(form, st):
    """eps((ell)) as the product over the primes above ell."""
    val = None
    for p in st.primes:
        e = form.eps_of(p)
        val = e if val is None else val * e
    return val


def c_factor(c, j, k, kprime, eps_value, m, coprime_to=None):
    """The interpolation factor c^2 - c^{2j-k-k'} eps(c) sigma_c^2 mod m.

    coprime_to, when supplied by the caller, carries the full coprimality
    requirement (6 p m Nm(N)); gcd(c, coprime_to) != 1 is rejected.
    """
    from math import gcd
    c, m = int(c), int(m)
    if c <= 1:
        raise AsaiRepError("need c > 1")
    check = coprime_to if coprime_to is not None else 6 * m
    if gcd(c, check) != 1:
        raise AsaiRepError(f"c = {c} is not coprime to {check}")
    if m > 1 and gcd(c, m) != 1:
        raise AsaiRepError(f"c = {c} shares a factor with m = {m}")
    e = 2 * j - k - kprime
    scale = Fraction(c ** e) if e >= 0 else Fraction(1, c ** (-e))
    return GroupRingElement.unit(m, 1, Fraction(c * c)) \
        - GroupRingElement.sigma(m, c, 2) * (scale * eps_value)
