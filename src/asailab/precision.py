"""Working-precision plumbing shared by the numeric evaluators, and the one
fixed-point layer of both L-value routes and the U-ladder: integers scaled by
2^bits, ints at real arguments and `Gauss` at complex ones.  Only this module
reads mpmath's raw numbers.

Precision is measured in bits of significand: 64, or the ASAILAB_PRECISION
environment variable, an integer of at least MIN_PRECISION.  The evaluators
take no precision of their own; only `CyclotomicValue.to_mpc` takes a `prec`.
"""

import os
from contextlib import contextmanager

import mpmath
from mpmath.libmp import (from_int, from_man_exp, mpc_exp, mpf_exp, mpf_log, mpf_mul,
                          mpf_neg, to_fixed)

DEFAULT_PRECISION = 64
MIN_PRECISION = 24
GUARD_BITS = 16
_MINUS_LOG = {}   # (p, bits) -> -log p to `bits` bits: the table of logs, one per precision
_POWERS = (None, {})   # ((s, prec), {p: p^-s}): inverse_power's values at the last s and prec


def working_precision():
    """ASAILAB_PRECISION (ValueError unless a decimal integer >= MIN_PRECISION),
    else DEFAULT_PRECISION."""
    env = os.environ.get("ASAILAB_PRECISION") or str(DEFAULT_PRECISION)
    if not env.isdecimal() or int(env) < MIN_PRECISION:
        raise ValueError(f"ASAILAB_PRECISION must be an integer >= {MIN_PRECISION}, got {env!r}")
    return int(env)


@contextmanager
def mp_context(prec=None):
    """mpmath context at `prec` bits, else the working precision, plus guard bits."""
    bits = (working_precision() if prec is None else int(prec)) + GUARD_BITS
    with mpmath.workprec(bits):
        yield mpmath.mp


def fixed(x, bits):
    """x 2^bits rounded down: an int for an mpf x, a Gauss for an mpc."""
    if isinstance(x, mpmath.mpc):
        return Gauss(*(to_fixed(part, bits) for part in x._mpc_))
    return to_fixed(x._mpf_, bits)


def exact_fixed(x):
    """(M, E) with x = M 2^-E exactly and E >= 0, M as `fixed` makes it."""
    parts = x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_,)
    bits = max(0, *(-part[2] for part in parts))
    return fixed(x, bits), bits


def inverse_power(p, s):
    """p^{-s} for an int p >= 1 and an mpf or mpc s, as exp(-s log p) at q = prec +
    3 + bits(|s| bits(p)) bits, prec the caller's: rounding log p and s log p moves
    the exponent by under 2^-(prec+2), and exp rounds by under 2^-(prec+1).

    The values at the last (s, prec) asked for are kept in `_POWERS`, keyed by
    the raw mpf or mpc tuple of s and prec, and a call at another s or prec
    replaces that table whole: both L-value routes ask for p^{-s} at the same s
    in turn, so the Euler product reads the primes the Dirichlet series has just
    raised.  A value depends on (p, s, prec) alone, so a kept one is the one a
    fresh call gives, bit for bit; the table holds one mpf or mpc per p asked
    for, at most pi(n_cutoff) of them for `imprimitive_L`."""
    global _POWERS
    key = (s._mpc_ if isinstance(s, mpmath.mpc) else s._mpf_, mpmath.mp.prec)
    powers = _POWERS   # this call's table, whatever other threads put in its place
    if powers[0] != key:
        powers = _POWERS = key, {}
    value = powers[1].get(p)
    if value is None:
        value = powers[1][p] = _inverse_power(p, s)
    return value


def _inverse_power(p, s):
    bits = mpmath.mp.prec + 3 + int(abs(complex(s)) * p.bit_length()).bit_length()
    log = _MINUS_LOG.get((p, bits)) or _MINUS_LOG.setdefault(
        (p, bits), mpf_neg(mpf_log(from_int(p), bits, "n")))
    if isinstance(s, mpmath.mpc):
        z = tuple(mpf_mul(part, log, bits, "n") for part in s._mpc_)
        return mpmath.mp.make_mpc(mpc_exp(z, bits, "n"))
    return mpmath.mp.make_mpf(mpf_exp(mpf_mul(s._mpf_, log, bits, "n"), bits, "n"))


def from_fixed(v, bits):
    """v 2^-bits for an int or Gauss v, as an mpc rounded once per part."""
    return mpmath.mp.make_mpc(tuple(from_man_exp(part, -bits, mpmath.mp.prec, "n")
                                    for part in (v.real, v.imag)))


class Gauss:
    """A Gaussian integer real + imag i (a plain int has real and imag too)."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other):
        return Gauss(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return Gauss(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other):
        a, b = other.real, other.imag
        return Gauss(self.real * a - self.imag * b, self.real * b + self.imag * a)

    __radd__, __rmul__ = __add__, __mul__

    def __lshift__(self, bits):
        return Gauss(self.real << bits, self.imag << bits)

    def __rshift__(self, bits):
        return Gauss(self.real >> bits, self.imag >> bits)

    def __floordiv__(self, n):
        return Gauss(self.real // n, self.imag // n)

    def conjugate(self):
        return Gauss(self.real, -self.imag)
