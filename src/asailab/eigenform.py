"""Hilbert modular eigenform Hecke data: ingestion, validation, synthesis.

A form stores exact Hecke eigenvalues lambda(n) keyed by prime-power ideals
(HNF tuples), a level ideal, a nebentype table and a weight (r1, r2, t1, t2)
with r1 + 2 t1 = r2 + 2 t2 = w.  Composite eigenvalues are derived by coprime
multiplicativity; the Dirichlet coefficient lambda(n) for rational n is the
T(n)-eigenvalue lambda((n)) obtained the same way.

Forms are immutable after construction and safe to share between threads.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeffs import CoefficientField, QuadElt
from .quadfield import (RealQuadraticField, IdealRep, ideal_from_label,
                        ideal_label)


class EigenformError(ValueError):
    pass


class MissingEigenvalueError(EigenformError):
    pass


@dataclass(frozen=True)
class Weight:
    """(r1, r2, t1, t2) = (k+2, k'+2, t, t')."""
    r1: int
    r2: int
    t1: int
    t2: int

    def __post_init__(self):
        if self.r1 < 2 or self.r2 < 2:
            raise EigenformError(f"weights must be >= 2, got ({self.r1}, {self.r2})")
        if (self.r1 - self.r2) % 2:
            raise EigenformError(f"weight parity violated: {self.r1} != {self.r2} mod 2")
        if self.r1 + 2 * self.t1 != self.r2 + 2 * self.t2:
            raise EigenformError("need r1 + 2 t1 = r2 + 2 t2")

    @property
    def k(self):
        return self.r1 - 2

    @property
    def kprime(self):
        return self.r2 - 2

    @property
    def w(self):
        return self.r1 + 2 * self.t1


class HilbertEigenform:
    """Eigenvalue table of a Hilbert modular eigenform over Q(sqrt(d))."""

    def __init__(self, field, weight, level, coefficient_field,
                 eigenvalues, nebentype=None, notes=None):
        self.field = field
        self.weight = weight
        self.level = level
        self.coefficient_field = coefficient_field
        self.eigenvalues = dict(eigenvalues)   # hnf tuple -> QuadElt
        self.nebentype = dict(nebentype or {})  # hnf tuple of a prime -> QuadElt
        self.notes = dict(notes or {})
        one = (1, 0, 1)
        if one in self.eigenvalues and self.eigenvalues[one] != 1:
            raise EigenformError("lambda(O_F) must be 1")
        self.eigenvalues[one] = coefficient_field.one()

    # -- eigenvalue access --------------------------------------------------

    def stored(self, ideal):
        key = ideal.hnf() if isinstance(ideal, IdealRep) else tuple(ideal)
        return self.eigenvalues.get(key)

    def lambda_of(self, ideal):
        """lambda at an integral ideal, via coprime multiplicativity."""
        val = self.stored(ideal)
        if val is not None:
            return val
        out = self.coefficient_field.one()
        for p, e in ideal.factor():
            key = (p ** e).hnf()
            if key not in self.eigenvalues:
                raise MissingEigenvalueError(
                    f"no eigenvalue stored at {ideal_label(p)}^{e} (norm {p.norm() ** e})")
            out = out * self.eigenvalues[key]
        return out

    def lambda_rational(self, n):
        """The T(n)-eigenvalue lambda((n)) for a positive integer n."""
        n = int(n)
        if n < 1:
            raise EigenformError("need n >= 1")
        return self.lambda_of(self.field.ideal(n))

    def alpha(self, n):
        """Dirichlet coefficient alpha(n) = n^{-(t+t')} lambda(n)."""
        n = int(n)
        tsum = self.weight.t1 + self.weight.t2
        scale = Fraction(1, n ** tsum) if tsum >= 0 else Fraction(n ** (-tsum))
        return scale * self.lambda_rational(n)

    def eps_of(self, ideal):
        """Nebentype at an ideal coprime to the level (empty table = trivial)."""
        if not self.nebentype:
            return self.coefficient_field.one()
        stored = self.nebentype.get(ideal.hnf())
        if stored is not None:
            return stored
        out = self.coefficient_field.one()
        for p, e in ideal.factor():
            key = p.hnf()
            if key not in self.nebentype:
                raise EigenformError(f"nebentype missing at {ideal_label(p)}")
            out = out * (self.nebentype[key] ** e)
        return out

    def chi_restriction(self):
        """The Dirichlet character chi = eps restricted to (Z/N)^x, N = level cap Z.

        Only trivial and rational (quadratic) nebentypes are representable; the
        stored table is consulted through principal ideals (n).
        """
        n_rat = self.rational_level()
        from .characters import DirichletCharacter
        if not self.nebentype:
            return DirichletCharacter.trivial(n_rat)
        raise EigenformError("nontrivial nebentype restriction not implemented; "
                             "supply chi explicitly")

    def rational_level(self):
        """Positive generator of (level ideal) intersected with Z."""
        lv = self.level
        n = lv.n  # smallest positive rational integer in the HNF module is n
        return n

    # -- serialisation -------------------------------------------------------

    def to_json(self):
        eig = []
        for key in sorted(self.eigenvalues):
            ideal = IdealRep(self.field, *key)
            eig.append({"ideal": ideal_label(ideal),
                        "lambda": self.eigenvalues[key].to_json()})
        neb = []
        for key in sorted(self.nebentype):
            ideal = IdealRep(self.field, *key)
            neb.append({"ideal": ideal_label(ideal),
                        "value": self.nebentype[key].to_json()})
        return {
            "d": self.field.d,
            "weight": [self.weight.r1, self.weight.r2, self.weight.t1, self.weight.t2],
            "level": {"norm": self.level.norm(), "hnf": list(self.level.hnf())},
            "coefficient_field": self.coefficient_field.to_json(),
            "nebentype": neb,
            "eigenvalues": eig,
            **({"notes": self.notes} if self.notes else {}),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_eigenform(source):
    """Load and fully validate a form from a path, file object or dict."""
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    for field_name in ("d", "weight", "level", "coefficient_field", "eigenvalues"):
        if field_name not in data:
            raise EigenformError(f"missing schema field {field_name!r}")
    field = RealQuadraticField(data["d"])
    if not isinstance(data["weight"], list) or len(data["weight"]) != 4:
        raise EigenformError("weight must be [r1, r2, t1, t2]")
    weight = Weight(*[int(x) for x in data["weight"]])
    lv = data["level"]
    if "hnf" not in lv or len(lv["hnf"]) != 3:
        raise EigenformError("level needs an 'hnf' triple")
    level = IdealRep(field, *[int(x) for x in lv["hnf"]])
    if "norm" in lv and level.norm() != int(lv["norm"]):
        raise EigenformError(f"level norm mismatch: {level.norm()} != {lv['norm']}")
    cfield = CoefficientField.from_json(data["coefficient_field"])
    eigenvalues = {}
    for entry in data["eigenvalues"]:
        ideal = ideal_from_label(field, entry["ideal"])
        val = cfield.parse_value(entry["lambda"])
        key = ideal.hnf()
        if key in eigenvalues and eigenvalues[key] != val:
            raise EigenformError(f"conflicting duplicate eigenvalue at {entry['ideal']}")
        eigenvalues[key] = val
    nebentype = {}
    for entry in data.get("nebentype", []):
        ideal = ideal_from_label(field, entry["ideal"])
        nebentype[ideal.hnf()] = cfield.parse_value(entry["value"])
    form = HilbertEigenform(field, weight, level, cfield, eigenvalues, nebentype,
                            notes=data.get("notes"))
    _validate_multiplicativity(form)
    return form


def _composite_product(form, ideal):
    """Product of the stored eigenvalues at the prime-power parts of ideal;
    None for a prime power or when some part is not stored."""
    fac = ideal.factor()
    if len(fac) < 2:
        return None
    prod = form.coefficient_field.one()
    for p, e in fac:
        pk = (p ** e).hnf()
        if pk not in form.eigenvalues:
            return None
        prod = prod * form.eigenvalues[pk]
    return prod


def _validate_multiplicativity(form):
    """Stored composites must equal the product over their prime-power parts."""
    for key in list(form.eigenvalues):
        ideal = IdealRep(form.field, *key)
        prod = _composite_product(form, ideal)
        if prod is not None and prod != form.eigenvalues[key]:
            raise EigenformError(
                f"multiplicativity violated at {ideal_label(ideal)}: "
                f"stored {form.eigenvalues[key]}, product {prod}")


# -- Hecke-relation checking --------------------------------------------------

def check_hecke_relations(form, bound):
    """Verify the prime-power recursion and coprime multiplicativity.

    For every prime p not dividing the level and every r >= 1 with
    Nm(p^{r+1}) <= bound, checks
        lambda(p) lambda(p^r) = lambda(p^{r+1}) + Nm(p)^{w-1} eps(p) lambda(p^{r-1}).
    Returns the list of violations (empty on success); raises when an
    eigenvalue within the bound is missing.
    """
    bound = int(bound)
    violations = []
    w = form.weight.w
    level_norm = form.level.norm()
    for ell in _primes_up_to(bound):
        for p in form.field.primes_above(ell):
            np = p.norm()
            if np > bound or level_norm % ell == 0:
                continue
            eps_p = form.eps_of(p)
            power = p
            values = [form.coefficient_field.one()]
            r = 1
            while (np ** (r)) <= bound:
                key = power.hnf()
                if key not in form.eigenvalues:
                    raise MissingEigenvalueError(
                        f"eigenvalue missing at {ideal_label(p)}^{r} within bound {bound}")
                values.append(form.eigenvalues[key])
                power = power * p
                r += 1
            for r in range(1, len(values) - 1):
                lhs = values[1] * values[r]
                rhs = values[r + 1] + Fraction(np ** (w - 1)) * eps_p * values[r - 1]
                if lhs != rhs:
                    violations.append({
                        "prime": ideal_label(p), "power": r + 1,
                        "lhs": repr(lhs), "rhs": repr(rhs)})
    # coprime multiplicativity of everything stored within the bound
    for key in sorted(form.eigenvalues):
        ideal = IdealRep(form.field, *key)
        if ideal.norm() > bound:
            continue
        prod = _composite_product(form, ideal)
        if prod is not None and prod != form.eigenvalues[key]:
            violations.append({"ideal": ideal_label(ideal), "power": None,
                               "lhs": repr(form.eigenvalues[key]), "rhs": repr(prod)})
    return violations


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


# -- base change ---------------------------------------------------------------

def base_change(ap, k_cl, nebentype_classical, field, bound=500):
    """Synthesise the base change of a classical eigenform to Q(sqrt(d)).

    ap maps rational primes to a_p values; k_cl >= 2 is the classical weight.
    For split l: lambda(P) = lambda(Pbar) = a_l.  For inert l:
    lambda(l O_F) = a_l^2 - 2 l^{k_cl - 1} eps(l).  For ramified P the
    convention lambda(P) = a_l is used (unverified; flagged in the notes).
    Higher prime powers are filled by the Hecke recursion so that lambda((n))
    is available for every n <= bound.
    """
    k_cl = int(k_cl)
    if k_cl < 2:
        raise EigenformError("classical weight must be >= 2")
    eps_cl = nebentype_classical  # DirichletCharacter or None
    cfield = CoefficientField(None)
    for v in ap.values():
        if isinstance(v, QuadElt) and not v.is_rational:
            cfield = v.field
            break

    def eps_at(ell):
        if eps_cl is None:
            return cfield.one()
        val = eps_cl(ell)
        if val is None:
            return cfield.zero()
        return cfield.element(val.as_rational())

    weight = Weight(k_cl, k_cl, 0, 0)
    level = field.maximal_order() if eps_cl is None or eps_cl.modulus == 1 \
        else field.ideal(eps_cl.modulus)
    eigenvalues = {}
    nebentype = {}
    ramified_used = []
    bound = int(bound)
    for ell in _primes_up_to(bound):
        if ell not in ap:
            raise MissingEigenvalueError(f"a_p missing at p = {ell} below bound {bound}")
        a_ell = ap[ell]
        if not isinstance(a_ell, QuadElt):
            a_ell = cfield.element(Fraction(a_ell))
        st = field.splitting_type(ell)
        for p in st.primes:
            if st.is_split:
                lam_p = a_ell
            elif st.is_inert:
                lam_p = a_ell * a_ell - 2 * Fraction(ell ** (k_cl - 1)) * eps_at(ell)
            else:
                lam_p = a_ell
                ramified_used.append(ell)
            eps_p = eps_at(p.norm())
            if eps_cl is not None and eps_cl.modulus > 1:
                nebentype[p.hnf()] = eps_p
            # fill powers by the recursion far enough that lambda((n)) exists
            # for all n <= bound: inert/ramified primes above l | n enter (n)
            # with norms up to bound^2
            np = p.norm()
            max_norm = bound if st.is_split else bound * bound
            prev = cfield.one()
            cur = lam_p
            power = p
            r = 1
            while np ** r <= max_norm:
                eigenvalues[power.hnf()] = cur
                if np ** (r + 1) > max_norm:
                    break
                nxt = lam_p * cur - Fraction(np ** (weight.w - 1)) * eps_p * prev
                prev, cur = cur, nxt
                power = power * p
                r += 1
    notes = {}
    if ramified_used:
        notes["ramified_convention"] = (
            f"lambda(P) = a_l used at ramified l in {sorted(set(ramified_used))}; "
            "unverified convention")
    return HilbertEigenform(field, weight, level, cfield, eigenvalues, nebentype, notes)


@lru_cache(maxsize=4)
def discriminant_form_ap(bound):
    """tau(p) for primes p <= bound, from the weight-12 eta-power expansion."""
    n_terms = bound + 1
    # eta^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}
    eta3 = [0] * n_terms
    k = 0
    while k * (k + 1) // 2 < n_terms:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    eta6 = _poly_sq_trunc(eta3, n_terms)
    eta12 = _poly_sq_trunc(eta6, n_terms)
    eta24 = _poly_sq_trunc(eta12, n_terms)
    # Delta = q * eta24(q): tau(n) = eta24[n-1]
    return {p: eta24[p - 1] for p in _primes_up_to(bound)}


def _poly_sq_trunc(a, n_terms):
    out = [0] * n_terms
    nz = [i for i, c in enumerate(a) if c]
    for ii, i in enumerate(nz):
        ai = a[i]
        if 2 * i < n_terms:
            out[2 * i] += ai * ai
        for j in nz[ii + 1:]:
            s = i + j
            if s >= n_terms:
                break
            out[s] += 2 * ai * a[j]
    return out


def alpha_coeff(form, n):
    """n^{-(t+t')} lambda(n); lambda(n) is the T(n)-eigenvalue."""
    return form.alpha(n)


def is_ordinary(form, p, v_embedding=None, precision=20):
    """(ordinary?, alpha_p) with alpha_p = p^{-(t+t')} lambda(U(p)).

    Requires p | level; the U(p)-eigenvalue is the stored value at (p).
    For quadratic coefficient fields, v_embedding selects the Hensel root of
    x^2 - e mod p (any residue with r^2 = e mod p); omitted means the smaller
    root.
    """
    p = int(p)
    if form.rational_level() % p != 0:
        raise EigenformError(f"p = {p} does not divide the level")
    lam_up = form.stored(form.field.ideal(p))
    if lam_up is None:
        raise MissingEigenvalueError(f"lambda(U({p})) not stored")
    tsum = form.weight.t1 + form.weight.t2
    scale = Fraction(1, p ** tsum) if tsum >= 0 else Fraction(p ** (-tsum))
    alpha_p = scale * lam_up
    from .padic import padic_valuation_of_value
    val = padic_valuation_of_value(alpha_p, p, v_embedding, precision)
    return val == 0, alpha_p
