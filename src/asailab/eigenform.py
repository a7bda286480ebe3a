"""Hilbert modular eigenform Hecke data: ingestion, validation, synthesis.

A form stores exact Hecke eigenvalues lambda(n) keyed by prime-power ideals
(HNF tuples), a level ideal, a nebentype table and a weight (r1, r2, t1, t2)
with r1 + 2 t1 = r2 + 2 t2 = w.  One method multiplies stored values over
prime powers P^e, keyed by `quadfield.prime_powers`: `lambda_of` and the
multiplicativity check give it the parts of `IdealRep.factor`, the recursion
check its prime powers, and `lambda_rational` (and
the alpha table, per l^e) the parts read off the splitting type of each l^e || n,
with no ideal factorisation -- P^e Pbar^e for split l, (l)^e for inert l and P^{2e} for
ramified l (P^2 = (l)).
The weight-12 discriminant form's tau(p) comes from (eta^3)^8 by J.C.P.
Miller's power recurrence over the sparse q-expansion of eta^3, kept in one
process-wide table of eta^24 coefficients that a larger bound continues from
its end rather than from q^1.

Forms are immutable after construction and safe to share between threads.
The eta^24 table is replaced whole, never changed where readers can see it.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorise, primes_up_to
from .coeffs import CoefficientField
from .quadfield import (RealQuadraticField, IdealRep, ideal_from_label,
                        ideal_label, prime_powers, splitting_type)


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
                 eigenvalues, nebentype=None):
        self.field = field
        self.weight = weight
        self.level = level
        self.coefficient_field = coefficient_field
        self.eigenvalues = dict(eigenvalues)   # hnf tuple -> QuadElt
        self.nebentype = dict(nebentype or {})  # hnf tuple of a prime -> QuadElt
        one = (1, 0, 1)
        if one in self.eigenvalues and self.eigenvalues[one] != 1:
            raise EigenformError("lambda(O_F) must be 1")
        self.eigenvalues[one] = coefficient_field.one()

    # -- eigenvalue access --------------------------------------------------

    def stored(self, ideal):
        return self.eigenvalues.get(ideal.hnf())

    def _stored_product(self, parts):
        """Product of the stored values at P^e over the (ell, i, e) in parts, P the
        i-th prime above ell (primes_above order), each key read from `prime_powers`."""
        field, out = self.field, None
        for ell, i, e in parts:
            val = self.eigenvalues.get(prime_powers(field, ell, e)[i][1])
            if val is None:
                p = prime_powers(field, ell, 1)[i][0]
                raise MissingEigenvalueError(
                    f"no eigenvalue stored at {ideal_label(p)}^{e} (norm {p.norm() ** e})")
            out = val if out is None else out * val
        return self.coefficient_field.one() if out is None else out

    def lambda_of(self, ideal):
        """lambda at an integral ideal: stored, or multiplied over its HNF factorisation."""
        val = self.stored(ideal)
        return self._stored_product(ideal.factor()) if val is None else val

    def lambda_rational(self, n):
        """The T(n)-eigenvalue lambda((n)) for a positive integer n: the
        product over l^e || n of the stored values at the prime-power parts of
        (l^e), as `_power_parts` lists them."""
        n = int(n)
        if n < 1:
            raise EigenformError("need n >= 1")
        return self._stored_product([part for ell, e in factorise(n)
                                     for part in _power_parts(splitting_type(self.field, ell), e)])

    def eps_of(self, p):
        """Nebentype at a prime P coprime to the level (empty table = trivial)."""
        if not self.nebentype:
            return self.coefficient_field.one()
        val = self.nebentype.get(p.hnf())
        if val is None:
            raise EigenformError(f"nebentype missing at {ideal_label(p)}")
        return val

    def rational_level(self):
        """Positive generator of (level ideal) intersected with Z."""
        return self.level.n  # the smallest positive integer in the HNF module

    # -- serialisation -------------------------------------------------------

    def to_json(self):
        def table(values, name):  # one entry per stored key, in HNF order
            return [{"ideal": ideal_label(IdealRep(self.field, *key)),
                     name: values[key].to_json()} for key in sorted(values)]
        return {
            "d": self.field.d,
            "weight": [self.weight.r1, self.weight.r2, self.weight.t1, self.weight.t2],
            "level": {"norm": self.level.norm(), "hnf": list(self.level.hnf())},
            "coefficient_field": self.coefficient_field.to_json(),
            "nebentype": table(self.nebentype, "value"),
            "eigenvalues": table(self.eigenvalues, "lambda"),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _power_parts(st, e):
    """The parts (ell, i, e') of (ell^e) for `_stored_product`, st the splitting type
    of ell: P^e Pbar^e for a split ell, (ell)^e for an inert one, P^{2e} for a ramified one."""
    return [(st.ell, i, 2 * e if st.is_ramified else e) for i in range(len(st.primes))]


def load_eigenform(source):
    """Load and fully validate a form from a path or dict."""
    if isinstance(source, dict):
        data = source
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
    form = HilbertEigenform(field, weight, level, cfield, eigenvalues, nebentype)
    bad = next(_multiplicativity_violations(form), None)
    if bad:
        raise EigenformError(f"multiplicativity violated at {bad['ideal']}: "
                             f"stored {bad['lhs']}, product {bad['rhs']}")
    return form


def _multiplicativity_violations(form, bound=None):
    """Yield, in HNF order, each stored composite of norm <= bound (any norm
    when bound is None) whose value is not the product of the stored values
    at its prime-power parts; composites with a part not stored are skipped."""
    for key in sorted(form.eigenvalues):
        ideal = IdealRep(form.field, *key)
        if bound is not None and ideal.norm() > bound:
            continue
        parts = ideal.factor()
        if len(parts) < 2:
            continue
        try:
            prod = form._stored_product(parts)
        except MissingEigenvalueError:
            continue
        if prod != form.eigenvalues[key]:
            yield {"ideal": ideal_label(ideal), "power": None,
                   "lhs": repr(form.eigenvalues[key]), "rhs": repr(prod)}


# -- Hecke-relation checking --------------------------------------------------

def check_hecke_relations(form, bound):
    """Verify the prime-power recursion and coprime multiplicativity.

    For every prime p not dividing the level and every r >= 1 with
    Nm(p^{r+1}) <= bound, checks
        lambda(p) lambda(p^r) = lambda(p^{r+1}) + Nm(p)^{w-1} eps(p) lambda(p^{r-1}),
    and every stored composite of norm <= bound against the product over its
    prime-power parts.  Returns the list of violations (empty on success);
    raises when an eigenvalue within the bound is missing.
    """
    bound = int(bound)
    violations = []
    w = form.weight.w
    level_norm = form.level.norm()
    for ell in primes_up_to(bound):
        for i, p in enumerate(form.field.primes_above(ell)):
            np = p.norm()
            if np > bound or level_norm % ell == 0:
                continue
            eps_p = form.eps_of(p)
            values, r = [], 0
            while np ** r <= bound:
                values.append(form._stored_product([(ell, i, r)]))
                r += 1
            for r in range(1, len(values) - 1):
                lhs = values[1] * values[r]
                rhs = values[r + 1] + Fraction(np ** (w - 1)) * eps_p * values[r - 1]
                if lhs != rhs:
                    violations.append({
                        "prime": ideal_label(p), "power": r + 1,
                        "lhs": repr(lhs), "rhs": repr(rhs)})
    return violations + list(_multiplicativity_violations(form, bound))


# -- base change ---------------------------------------------------------------

def base_change(ap, k_cl, nebentype_classical, field, bound=500):
    """Synthesise the base change of a level-1 classical eigenform to Q(sqrt(d)).

    ap maps rational primes to rational a_p values (ints or Fractions);
    k_cl >= 2 is the classical weight; nebentype_classical must be None (a
    nebentype could not reach an L-series: AsaiLSeries refuses it).  For split
    l: lambda(P) = lambda(Pbar) = a_l.  For inert l: lambda(l O_F) = a_l^2 -
    2 l^{k_cl - 1}.
    For ramified l = P^2: lambda(P) = a_l, because P has residue degree 1 and
    the classical form is unramified at l, so Frob_P acts as Frob_l.  (The
    Asai L-series sees only lambda(P)^2, so
    test_delta_base_change_is_sym2_times_twisted_zeta checks lambda(P)^2 =
    a_l^2, not the sign.)
    Higher prime powers are filled by the Hecke recursion so that lambda((n))
    is available for every n <= bound.
    """
    k_cl = int(k_cl)
    if k_cl < 2:
        raise EigenformError("classical weight must be >= 2")
    if nebentype_classical is not None:
        raise EigenformError("base change takes level-1 forms without nebentype")
    cfield = CoefficientField(None)
    weight = Weight(k_cl, k_cl, 0, 0)
    eigenvalues = {}
    bound = int(bound)
    for ell in primes_up_to(bound):
        if ell not in ap:
            raise MissingEigenvalueError(f"a_p missing at p = {ell} below bound {bound}")
        a_ell = cfield.element(ap[ell])
        st = splitting_type(field, ell)
        lam_p = a_ell * a_ell - 2 * ell ** (k_cl - 1) if st.is_inert else a_ell
        # P and Pbar of a split ell have one norm and one lambda, so one run
        # of the recursion serves both: they share its values
        np = st.primes[0].norm()
        # fill powers by the recursion far enough that lambda((n)) exists
        # for all n <= bound: inert/ramified primes above l | n enter (n)
        # with norms up to bound^2
        max_norm = bound if st.is_split else bound * bound
        prev, cur, r = cfield.one(), lam_p, 1
        while True:
            for _, key in prime_powers(field, ell, r):
                eigenvalues[key] = cur
            if np ** (r + 1) > max_norm:
                break
            nxt = lam_p * cur - np ** (weight.w - 1) * prev
            prev, cur, r = cur, nxt, r + 1
    return HilbertEigenform(field, weight, field.maximal_order(), cfield, eigenvalues)


def synthetic_form(field, weight, local_lambdas, eps_values=None):
    """A level-1 form known only at a few primes and their squares.

    local_lambdas maps a rational prime l to lambda(P) for the primes P above
    l, in `primes_above` order; lambda(P^2) = lambda(P)^2 - N(P)^(w-1) eps(P)
    with eps(P) = eps_values[l] (default 1).  The nebentype is stored only
    when eps_values is given.
    """
    cf = CoefficientField(None)
    eig = {}
    neb = {}
    for ell, lams in local_lambdas.items():
        for p, lam, (_, key2) in zip(field.primes_above(ell), lams,
                                     prime_powers(field, ell, 2)):
            lam = cf.element(lam)
            eps = cf.element((eps_values or {}).get(ell, 1))
            eig[p.hnf()] = lam
            eig[key2] = lam * lam - Fraction(p.norm() ** (weight.w - 1)) * eps
            if eps_values:
                neb[p.hnf()] = eps
    return HilbertEigenform(field, weight, field.maximal_order(), cf, eig, neb)


_eta24 = [1]   # eta(q)^24 = sum_n _eta24[n] q^n, n < len(_eta24); grows on demand


def discriminant_form_ap(bound):
    """tau(p) for primes p <= bound, from Delta = q (eta^3)^8, as a new dict.

    eta^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2} has about sqrt(2 bound)
    nonzero terms below q^bound.  For g = f^m with f(0) = 1, differentiating
    g = f^m gives J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)
        n g_n = sum_{1 <= k <= n} ((m + 1) k - n) f_k g_{n-k},
    an exact division by n, summed here over the nonzero f_k only.  One
    process-wide table of g = eta^24 serves every call: a bound past its end
    continues the recurrence from there on a copy, published by one
    assignment, so a reader never sees a half-built table.
    """
    global _eta24
    eta24 = _eta24
    if len(eta24) < bound:
        start = len(eta24)
        eta24 = eta24 + [0] * (bound - start)
        eta3, k = [], 1   # (i, f_i) for the nonzero f_i, 1 <= i <= n; f_0 = 1
        for n in range(start, bound):
            while k * (k + 1) // 2 <= n:
                eta3.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
                k += 1
            acc = 0
            for i, c in eta3:
                acc += (9 * i - n) * c * eta24[n - i]
            eta24[n] = acc // n
        _eta24 = eta24
    # Delta = q * eta24(q): tau(n) = eta24[n-1]
    return {p: eta24[p - 1] for p in primes_up_to(bound)}
