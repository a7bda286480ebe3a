"""Reduced indefinite binary quadratic forms: the benchmark's own reference
for class numbers and narrow principality, independent of asailab.

A form (a, b, c) has discriminant D = b^2 - 4ac > 0, D not a square.  It is
reduced when 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b.  The
reduction operator rho (Cohen, GTM 138, 5.6.5) is a proper equivalence; it
permutes the reduced forms of D in cycles, and the cycles are the proper
(narrow) equivalence classes.  All comparisons with sqrt(D) are exact.
"""

import math


def field_discriminant(d):
    return d if d % 4 == 1 else 4 * d


def is_squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _lt_sqrt(x, D):
    """x < sqrt(D) for an integer x and a non-square D > 0."""
    return x < 0 or x * x < D


def is_reduced(form, D):
    a, b, _ = form
    return (0 < b and _lt_sqrt(b, D)
            and not _lt_sqrt(2 * abs(a) + b, D)        # sqrt(D) < 2|a| + b
            and _lt_sqrt(2 * abs(a) - b, D))           # 2|a| - b < sqrt(D)


def rho(form, D):
    """One reduction step (a, b, c) -> (c, r, (r^2 - D) / 4c), r = -b mod 2c."""
    _, b, c = form
    two_c = 2 * abs(c)
    r = (-b) % two_c
    if _lt_sqrt(abs(c), D):
        # the unique r in (sqrt(D) - 2|c|, sqrt(D)): the largest r <= isqrt(D)
        r += two_c * ((math.isqrt(D) - r) // two_c)
    elif r > abs(c):
        r -= two_c                                     # r in (-|c|, |c|]
    return (c, r, (r * r - D) // (4 * c))


def reduce_form(form, D):
    steps = 0
    while not is_reduced(form, D):
        form = rho(form, D)
        steps += 1
        if steps > 10 * D:
            raise ArithmeticError(f"reduction of {form} did not terminate")
    return form


def cycle(form, D):
    """The rho-cycle through a reduced form, as a frozenset."""
    seen = [form]
    nxt = rho(form, D)
    while nxt != form:
        seen.append(nxt)
        nxt = rho(nxt, D)
    return frozenset(seen)


def reduced_forms(D):
    out = []
    s = math.isqrt(D)
    for b in range(1, s + 1):
        if (b - D) % 2 or b * b >= D:
            continue
        ac = (b * b - D) // 4
        for a in range(1, -ac + 1):
            if ac % a:
                continue
            for sa in (a, -a):
                f = (sa, b, ac // sa)
                if is_reduced(f, D):
                    out.append(f)
    return out


class FieldForms:
    """Class-group facts about Q(sqrt d) decided from reduced forms."""

    def __init__(self, d):
        self.d = d
        self.D = D = field_discriminant(d)
        t = D % 2
        principal = reduce_form((1, t, (t - D) // 4), D)
        negative = reduce_form((-1, t, (D - t) // 4), D)
        self.principal_cycle = cycle(principal, D)
        self.negative_cycle = cycle(negative, D)
        cycles = {cycle(f, D) for f in reduced_forms(D)}
        self.narrow_class_number = len(cycles)
        # the norm of the fundamental unit is -1 iff -1 is a norm, i.e. the
        # form (-1, t, .) is properly equivalent to the principal form
        self.unit_norm = -1 if self.principal_cycle == self.negative_cycle else 1
        self.class_number = self.narrow_class_number if self.unit_norm == -1 \
            else self.narrow_class_number // 2

    def norm_form(self, x, y):
        """Norm of x + y*omega, omega the integral basis element."""
        t = self.D % 2
        return x * x + t * x * y + (t - self.D) // 4 * y * y

    def narrowly_principal_prime(self, ell):
        """True iff the primes above a split ell have totally positive generators,
        i.e. +ell is a norm from O_F (prime norms are primitive values)."""
        D = self.D
        for b in range(-ell, ell + 1):
            if (b * b - D) % (4 * ell) == 0:
                f = reduce_form((ell, b, (b * b - D) // (4 * ell)), D)
                return f in self.principal_cycle
        raise ValueError(f"{ell} does not split in Q(sqrt {self.d})")


def class_number_one_fields(bound):
    """Squarefree 1 < d < bound with class number 1."""
    return [d for d in range(2, bound) if is_squarefree(d)
            and FieldForms(d).class_number == 1]
