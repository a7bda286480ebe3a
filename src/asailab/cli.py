"""Command-line front end.

Every subcommand validates its inputs, computes, and writes one deterministic
JSON report to stdout (or --out).  Exit codes: 0 success, 1 validation
failure, 2 computational hypothesis failure (e.g. a required (NEZ) check came
back false, or a pole was hit), 64 usage errors.  ASAILAB_PRECISION sets the
working precision, from 24 to 192 bits (default 64).

Each handler `cmd_<name>(args)` returns `(inputs, result, cutoffs, exit_code)`;
`main` alone builds, encodes and writes the report, and maps an exception to
its exit code through `_EXITS`.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath

from . import __version__
from .arith import is_prime
from .precision import MIN_PRECISION, mp_context, working_precision
from .coeffs import CoefficientError, parse_rational, to_mpf
from .quadfield import (RealQuadraticField, IdealRep, ideal_label, splitting_type,
                        totally_positive_generator)
from .eigenform import (Weight, base_change, check_hecke_relations,
                        discriminant_form_ap, load_eigenform, synthetic_form)
from . import heckealg
from .heckealg import HeckeAlgError
from .asairep import (HypothesisError, asai_charpoly, asai_charpoly_via_induction,
                      euler_system_norm_factor)
from .eisenstein import (EisensteinPole, diagonal_mellin_check,
                         eisenstein_continued, eisenstein_lattice_sum,
                         kronecker_limit_check, siegel_stop, siegel_unit)
from .lseries import (AsaiLSeries, euler_product_L, imprimitive_L,
                      regulator_constant, unfolding_constant)
from .characters import DirichletCharacter, unit_group_structure
from .padic import (NEZFailure, OrdinaryData, PadicError, check_NEZ,
                    gauss_sum, pr_interp_factor, stabilized_params)
from .acceptance import run_acceptance


class UsageError(ValueError):
    pass


def parse_complex(text):
    """Complex literals 'a+bi' with exact rational parts ('i', '2i', '1/2-3i', ...)."""
    t = str(text).strip().replace(" ", "")
    if not t:
        raise UsageError("empty complex literal")
    if not t.endswith(("i", "j")):
        re_part, im = t, Fraction(0)
    else:
        body = t[:-1]
        # split into real + imaginary at the last +/- that is not an exponent or leading
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/*eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = parse_rational(im_part)
    re = parse_rational(re_part) if re_part else Fraction(0)
    try:
        return complex(float(re), float(im))
    except OverflowError:
        raise UsageError(f"complex literal {text!r} is past the double range") from None


def _emit(args, inputs, result, cutoffs):
    report = {
        "command": args.cmd,
        "inputs": inputs,
        "result": result,
        "provenance": {"version": __version__,
                       "precision": working_precision(),
                       "cutoffs": cutoffs},
    }
    text = _json_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(obj, pad="\n"):
    """json.dumps(obj, indent=1, sort_keys=True, allow_nan=False,
    default=_json_default), byte for byte: with an indent, json runs its
    pure-Python encoder, which this recursion outpaces."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in obj]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _json_str(_json_key(k)) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())]) + pad + "}"
    return _json_text(_json_default(obj), pad)


_json_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(x):
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_key(key):
    """A dict key as json writes it: str, int, float, bool or None keys only."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_default(obj):
    """The one encoder of report values that JSON has no type for."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, mpmath.mpf):
        return float(obj)
    if isinstance(obj, (complex, mpmath.mpc)):
        return [float(obj.real), float(obj.imag)]  # a complex keeps a -0.0 part
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return repr(obj)


def _local_form(args):
    """The report inputs and synthetic form of --d, --ell, --lambda, --w and
    --eps; the inputs name eps only at -1."""
    lambdas, eps = [parse_rational(x) for x in args.lam], args.eps
    field = RealQuadraticField(args.d)
    n_primes = len(field.primes_above(args.ell))
    if n_primes != len(lambdas):
        raise UsageError(f"{n_primes} primes above {args.ell} but {len(lambdas)} lambda values")
    form = synthetic_form(field, Weight(args.w, args.w, 0, 0), {args.ell: lambdas},
                          {args.ell: eps} if eps != 1 else None)
    inputs = {"d": args.d, "ell": args.ell, "lambda": args.lam, "w": args.w}
    return {**inputs, "eps": eps} if eps != 1 else inputs, form


def _load_form_arg(args, bound):
    """The --form file, or with --delta the Delta base change with every
    coefficient up to bound, the largest cutoff the command reads."""
    if args.form:
        return load_eigenform(args.form)
    if args.delta:
        return base_change(discriminant_form_ap(bound), 12, None,
                           RealQuadraticField(args.d or 5), bound=bound)
    raise UsageError("supply --form FILE or --delta")


def _positive_int(text, limit=None):
    """argparse type for counts and cutoffs: an integer >= 1, and <= limit if given."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"must be <= {limit}, got {value}")
    return value


_lattice_cutoff = functools.partial(_positive_int, limit=2500)   # 2.4 s of lattice at most

# at P bits the continuation runs (P + 25) ln 2 / (2 pi Im tau) Fourier levels, at
# most 2945 above the Im tau limit (P + 25) / 26700 (1/300 at 64 bits), and a level
# costs more at more bits: the dearest call there (k = 7, complex s) takes 2-3 s
# from 64 to 192 bits, and 1.2-1.8 times its 64-bit time at 256
_MAX_PRECISION = 192


def _continuation_tau(text):
    """--tau of the continuation: Im tau at least the limit at the working precision,
    checked before any work (Im tau <= 0 is left to the evaluators, which refuse it)."""
    tau = parse_complex(text)
    limit = Fraction(working_precision() + 25, 26700)
    if 0 < tau.imag < float(limit):   # the float of '1/300' passes
        raise UsageError(f"--tau: Im tau must be >= {limit} for the continuation, "
                         f"got {tau.imag:g}")
    return tau


def _positive_float(text):
    """argparse type for real cutoffs: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


# -- subcommand handlers: each returns (inputs, result, cutoffs, exit_code) -----

def cmd_field_info(args):
    field = RealQuadraticField(args.d)
    unit, nrm = field.fundamental_unit()
    a, b = field.omega_coords(unit)
    with mp_context():
        theta1 = to_mpf(unit)
    # a unit past the float range is reported by its regulator log(theta1)
    size = ({"theta1": float(theta1)} if mpmath.isfinite(float(theta1))
            else {"log_theta1": float(mpmath.log(theta1))})
    different = field.different()
    res = {
        "d": field.d, "discriminant": field.disc,
        "omega": {"trace": field.omega_trace, "norm": field.omega_norm},
        "fundamental_unit": {"a": a, "b": b, **size, "norm": nrm},
        "different": {"hnf": different.hnf(), "norm": different.norm()},
    }
    if args.ell is not None:
        st = splitting_type(field, args.ell)
        res["splitting"] = {"ell": args.ell, "kind": st.kind.value,
                            "primes": [{"hnf": p.hnf(), "label": ideal_label(p)}
                                       for p in st.primes]}
        if st.is_split:
            res["splitting"]["totally_positive_generators"] = [
                None if g is None else dict(zip("ab", field.omega_coords(g)))
                for g in map(totally_positive_generator, st.primes)]
    return {"d": args.d, "ell": args.ell}, res, {}, 0


def cmd_form_validate(args):
    form = load_eigenform(args.form)
    violations = check_hecke_relations(form, args.bound)
    res = {
        "d": form.field.d,
        "weight": [form.weight.r1, form.weight.r2, form.weight.t1, form.weight.t2],
        "level_norm": form.level.norm(),
        "eigenvalues_stored": len(form.eigenvalues),
        "hecke_violations": violations,
        "valid": not violations,
    }
    return {"form": args.form, "bound": args.bound}, res, {}, 2 if violations else 0


def cmd_base_change(args):
    field = RealQuadraticField(args.d)
    if args.ap_file:
        with open(args.ap_file, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except RecursionError:
                raise CoefficientError("--ap-file is nested too deeply") from None
        if not isinstance(spec, dict):
            raise CoefficientError('--ap-file must be a JSON object of a_p values, '
                                   'e.g. {"2": "-24"}')
        ap = {int(p): parse_rational(v) for p, v in spec.items()}
    else:
        ap = discriminant_form_ap(args.bound)
        if args.weight != 12:
            raise UsageError("built-in coefficients are the weight-12 discriminant form")
    form = base_change(ap, args.weight, None, field, bound=args.bound)
    if args.save:
        form.save(args.save)
    res = {"d": args.d, "classical_weight": args.weight, "bound": args.bound,
           "eigenvalues_stored": len(form.eigenvalues),
           "sample": {ideal_label(IdealRep(field, *key)): form.eigenvalues[key]
                      for key in sorted(form.eigenvalues)[:8]},
           "saved_to": args.save}
    return {"d": args.d, "weight": args.weight}, res, {"bound": args.bound}, 0


def cmd_euler_factor(args):
    inputs, form = _local_form(args)
    pl = asai_charpoly(form, args.ell)
    via = asai_charpoly_via_induction(form, args.ell)
    res = {"splitting": pl.kind, "coefficients": pl.coeffs,
           "tensor_induction_coefficients": via.coeffs,
           "agree": pl == via,
           "normalization": "includes the (t+t') twist: T(l) -> l^{-(t+t')} lambda((l))"}
    return inputs, res, {}, 0 if res["agree"] else 2


def _labels_arg(text):
    """The --labels header: a JSON object of {"norm", "unit"} objects; other keys are ignored."""
    try:
        spec = json.loads(text)
    except RecursionError:
        raise HeckeAlgError("--labels is nested too deeply") from None
    if not isinstance(spec, dict) or not all(isinstance(v, dict) for v in spec.values()):
        raise HeckeAlgError('--labels must be a JSON object of objects, '
                            'e.g. {"l1": {"norm": 11}}')
    return {name: heckealg.PrimeLabel(name, info.get("norm", 1), info.get("unit", False))
            for name, info in spec.items()}


def cmd_hecke_identity(args):
    labels = _labels_arg(args.labels) if args.labels else {}
    lhs = parse_hecke_expression(args.expr, labels).normalize()
    res = {"normal_form": repr(lhs)}
    if args.expr2:
        rhs = parse_hecke_expression(args.expr2, labels).normalize()
        res["normal_form_rhs"] = repr(rhs)
        res["equal"] = lhs == rhs
    if args.split_x2:
        res["split_x2_identity"] = heckealg.verify_split_x2_identity(
            *heckealg.split_labels(args.split_x2))
    ok = res.get("equal", True) and res.get("split_x2_identity", True)
    return ({"expr": args.expr, "expr2": args.expr2, "labels": args.labels,
             "split_x2": args.split_x2}, res, {}, 0 if ok else 2)


def cmd_norm_factor(args):
    inputs, form = _local_form(args)
    elt = euler_system_norm_factor(form, args.ell, args.j, args.m)
    res = {"group_ring_modulus": args.m, "element": elt, "is_zero": elt.is_zero()}
    return {**inputs, "j": args.j, "m": args.m}, res, {}, 0


def cmd_lfun(args):
    bound = {"dirichlet": args.n_cutoff, "euler": args.ell_cutoff}.get(
        args.method, max(args.n_cutoff, args.ell_cutoff))
    series = AsaiLSeries(_load_form_arg(args, bound))
    s = parse_complex(args.s)
    normalization = "L_(N)(chi, 2s-2-k-k') * sum alpha(n) n^-s"
    pieces = {}
    if args.method in ("dirichlet", "both"):
        val, rep = imprimitive_L(series, s, n_cutoff=args.n_cutoff)
        pieces["dirichlet"] = {"value": val, "truncation": rep, "normalization": normalization}
    if args.method in ("euler", "both"):
        val, rep = euler_product_L(series, s, ell_cutoff=args.ell_cutoff)
        pieces["euler_product"] = {"value": val, "truncation": rep,
                                   "normalization": normalization}
    if args.method == "both":
        # the difference of the two values as reported, in double precision
        a, b = (complex(piece["value"]) for piece in pieces.values())
        res = {**pieces, "relative_difference": abs(a - b) / max(abs(a), 1e-300)}
    else:
        # single-method reports use the flat {value, truncation, normalization} shape
        (res,) = pieces.values()
    return ({"s": args.s, "method": args.method}, res,
            {"n_cutoff": args.n_cutoff, "ell_cutoff": args.ell_cutoff}, 0)


def cmd_eisenstein(args):
    alpha = parse_rational(args.alpha)
    tau = (parse_complex if args.method == "lattice" else _continuation_tau)(args.tau)
    s = parse_complex(args.s)
    s = s.real if s.imag == 0 else s
    res = {}
    if args.method in ("continued", "both"):
        res["continued"] = complex(eisenstein_continued(args.k, alpha, tau, s))
    if args.method in ("lattice", "both"):
        res["lattice"] = eisenstein_lattice_sum(args.k, alpha, tau, s, args.cutoff)
    if args.method == "both":
        res["difference"] = abs(res["continued"] - res["lattice"])
    return ({"k": args.k, "alpha": args.alpha, "tau": args.tau, "s": args.s},
            res, {"cutoff": args.cutoff}, 0)


def cmd_kronecker_check(args):
    alpha = parse_rational(args.alpha)
    tau = _continuation_tau(args.tau)
    # the default cap is 200, as reports have always read, or every factor
    # the working precision keeps where that is more
    terms = args.terms or max(200, siegel_stop(tau))
    resid = float(kronecker_limit_check(alpha, tau, terms=terms))
    res = {"residual": resid, "tolerance": args.tol, "passes": resid < args.tol,
           "siegel_unit_abs": float(abs(siegel_unit(alpha, tau, terms=terms)))}
    return ({"alpha": args.alpha, "tau": args.tau}, res, {"terms": terms},
            0 if res["passes"] else 2)


def cmd_mellin_check(args):
    lhs, rhs, resid = diagonal_mellin_check(_load_form_arg(args, args.n_max), args.sprime,
                                            y_cutoff=args.y_cutoff, n_max=args.n_max)
    res = {"lhs": lhs, "rhs": rhs, "relative_residual": resid,
           "normalization": "rhs = Gamma(s') (sqrt(Delta)/(4 pi))^{s'} "
                            "sum alpha(n) n^{-s'}"}
    return ({"sprime": args.sprime}, res,
            {"y_cutoff": args.y_cutoff, "n_max": args.n_max}, 0)


def cmd_constants(args):
    res = {}
    if args.kprime <= args.k:
        res["unfolding"] = unfolding_constant(args.k, args.kprime, args.j,
                                              args.level, args.disc)
    res["regulator"] = regulator_constant(args.k, args.kprime, args.j, args.disc)
    return ({"k": args.k, "kprime": args.kprime, "j": args.j,
             "N": args.level, "disc": args.disc}, res, {}, 0)


def _ordinary_from_args(args):
    if args.form:
        return stabilized_params(load_eigenform(args.form), args.p)
    if args.alpha_p is None or args.alpha_q is None:
        raise UsageError("supply --form or both --alpha-p and --alpha-q")
    return OrdinaryData(p=args.p, k=args.k, kprime=args.kprime,
                        alpha_p=parse_rational(args.alpha_p),
                        alpha_q=parse_rational(args.alpha_q),
                        eps_p=parse_rational(args.eps_p),
                        eps_q=parse_rational(args.eps_q))


def cmd_padic_params(args):
    data = _ordinary_from_args(args)
    res = {
        "p": data.p, "k": data.k, "kprime": data.kprime,
        "frobenius_eigenvalues": {n: repr(v) for n, v in data.frobenius_eigenvalues()},
        "valuations": data.valuations(),
        "alpha_p(F)": repr(data.alpha_rational()),
        "m_p_choice": "alpha_p_beta_q",
        "m_p_eigenvalue": repr(data.m_p_eigenvalue()),
        "notes": data.notes,
    }
    return {"p": args.p}, res, {}, 0


def cmd_nez(args):
    data = _ordinary_from_args(args)
    holds, witness = check_NEZ(data)
    return ({"p": args.p, "k": data.k, "kprime": data.kprime},
            {"nez": holds, "witness": witness}, {}, 2 if args.require and not holds else 0)


def _eta_arg(args):
    """The character mod p^r, p prime, named by the --eta generator exponents; a
    missing or empty --eta is "0", or none where (Z/p^r)^x has no generator (p^r = 2)."""
    if not is_prime(args.p):
        raise PadicError(f"p = {args.p} is not prime")
    modulus = args.p ** args.r
    gens = unit_group_structure(modulus)
    exps = [int(x) for x in (args.eta or "0").split(",")] if args.eta or gens else []
    if len(exps) != len(gens):
        raise UsageError(f"eta needs {len(gens)} exponents for modulus {modulus}")
    return DirichletCharacter(modulus, exps)


def cmd_pr_factor(args):
    eta = _eta_arg(args) if args.r > 0 else None
    if args.a_value is not None:
        fac = pr_interp_factor(parse_rational(args.a_value), args.j, args.r, eta,
                               p=args.p, kprime=args.kprime)
    else:
        fac = pr_interp_factor(_ordinary_from_args(args), args.j, args.r, eta)
    res = {"scalar": repr(fac.scalar), "tag": fac.tag,
           "tag_constant": fac.tag_constant,
           "gauss_inverse": None if fac.gauss_inverse is None else repr(fac.gauss_inverse)}
    try:
        res["numeric"] = fac.numeric()
    except PadicError:
        res["numeric"] = None
    return {"p": args.p, "j": args.j, "r": args.r, "eta": args.eta}, res, {}, 0


def cmd_gauss_sum(args):
    if args.eta is None:   # the default: exponent 1, if there is a generator
        args.eta = "1" if unit_group_structure(args.p ** args.r) else ""
    eta = _eta_arg(args)
    g = gauss_sum(eta)
    res = {"gauss_sum": repr(g), "norm_squared": (g * g.conjugate()).rational_value(),
           "numeric": g.to_mpc(),
           "character": {"modulus": eta.modulus, "exponents": eta.exponents,
                         "order": eta.order, "conductor": eta.conductor()}}
    return {"p": args.p, "r": args.r, "eta": args.eta}, res, {}, 0


def cmd_acceptance(args):
    selection = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    ok, results = run_acceptance(selection, echo=not args.quiet)
    return ({"criteria": args.criteria}, {"all_passed": ok, "results": results}, {},
            0 if ok else 2)


# -- expression grammar ----------------------------------------------------------

def parse_hecke_expression(text, labels):
    """Parse `T(l1)^2 - T(l1^2) - 11^2*S(11)` over declared labels."""
    tokens = _tokenise(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected and tok != expected):
            raise HeckeAlgError(f"unexpected token {tok!r} (wanted {expected!r})")
        pos[0] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*":
            take("*")
            node = node * parse_factor()
        return node

    def parse_factor():
        if peek() == "-":  # looser than ^: -x^2 = -(x^2)
            take("-")
            return -parse_factor()
        node = parse_atom()
        if peek() == "^":
            take("^")
            node = node ** exponent()
        return node

    def exponent():
        tok = take()
        try:
            return int(tok)  # a token holds no sign
        except ValueError:
            raise HeckeAlgError(f"exponent {tok!r} is not a non-negative integer") from None

    def parse_atom():
        tok = take()
        if tok == "(":
            node = parse_expr()
            take(")")
            return node
        if tok in ("T", "S", "U", "R", "D", "SIG"):
            take("(")
            arg = parse_arg()
            take(")")
            ctor = {"T": heckealg.T, "S": heckealg.S, "U": heckealg.U,
                    "R": heckealg.R, "D": heckealg.diamond}.get(tok)
            if tok == "SIG":
                (lab, e), = arg.items()
                return heckealg.sigma(lab.norm, e)
            return ctor(arg)
        if tok == "X":
            return heckealg.X()
        try:
            return heckealg.HeckePolynomial.constant(Fraction(tok))
        except ValueError as exc:
            raise HeckeAlgError(f"unknown token {tok!r}") from exc
        except ZeroDivisionError:
            raise HeckeAlgError(f"zero denominator in {tok!r}") from None

    def parse_arg():
        arg = {}
        while True:
            name = take()
            if name not in labels:
                raise HeckeAlgError(f"label {name!r} not declared in the header")
            exp = 1
            if peek() == "^":
                take("^")
                exp = exponent()
            lab = labels[name]
            arg[lab] = arg.get(lab, 0) + exp
            if peek() == "*":
                take("*")
                continue
            return arg

    try:
        node = parse_expr()
    except RecursionError:
        raise HeckeAlgError("expression nested too deeply") from None
    if pos[0] != len(tokens):
        raise HeckeAlgError(f"trailing input at token {pos[0]}")
    return node


def _tokenise(text):
    """Operators, and words of letters, digits, '_' and '/'; spaces separate."""
    stray = re.search(r"[^-+*^()\w/\s]", text)
    if stray:
        raise HeckeAlgError(f"stray character {stray.group()!r}")
    return re.findall(r"[-+*^()]|[\w/]+", text)


# -- argument parser ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")  # '-1/2', '-.3+.5i' are values

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser():
    """The argparse tree, built on first use and shared: it keeps no per-call state."""
    # the module docstring's last paragraph is for maintainers, not for --help
    parser = _Parser(prog="asailab", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="cmd")
    # option groups shared by several commands
    local = argparse.ArgumentParser(add_help=False)
    local.add_argument("--d", type=int, required=True)
    local.add_argument("--ell", type=int, required=True)
    local.add_argument("--lambda", dest="lam", action="append", required=True,
                       help="lambda at a prime above ell (repeat for split primes)")
    local.add_argument("--w", type=int, default=2, help="motivic weight w = k+2 (t = 0)")
    local.add_argument("--eps", type=int, choices=(1, -1), default=1,
                       help="nebentype eps at the primes above ell, 1 or -1 (default 1)")
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("--form")
    form.add_argument("--delta", action="store_true",
                      help="use the discriminant-form base change over Q(sqrt(d))")
    form.add_argument("--d", type=int, default=5)
    ordinary = argparse.ArgumentParser(add_help=False)
    ordinary.add_argument("--form")
    ordinary.add_argument("--p", type=int, required=True)
    ordinary.add_argument("--k", type=int, default=0)
    ordinary.add_argument("--kprime", type=int, default=0)
    ordinary.add_argument("--alpha-p")
    ordinary.add_argument("--alpha-q")
    ordinary.add_argument("--eps-p", default="1")
    ordinary.add_argument("--eps-q", default="1")

    p = sub.add_parser("field-info", help="real quadratic field invariants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("form-validate", help="load a form and check Hecke relations")
    p.add_argument("--form", required=True)
    p.add_argument("--bound", type=_positive_int, default=100)
    p.set_defaults(func=cmd_form_validate)

    p = sub.add_parser("base-change", help="synthesise a base-change eigenform")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--ap-file")
    p.add_argument("--bound", type=_positive_int, default=500)
    p.add_argument("--save")
    p.set_defaults(func=cmd_base_change)

    p = sub.add_parser("euler-factor", help="Asai Euler factor from local data", parents=[local])
    p.set_defaults(func=cmd_euler_factor)

    p = sub.add_parser("hecke-identity", help="normalise/compare symbolic expressions")
    p.add_argument("--expr", required=True)
    p.add_argument("--expr2")
    p.add_argument("--labels", help='JSON: {"l1": {"norm": 11}, "u": {"unit": true}, ...}; '
                                     '"norm" defaults to 1 and "unit" to false')
    p.add_argument("--split-x2", type=int, dest="split_x2",
                   help="also verify the split X^2 identity at this prime")
    p.set_defaults(func=cmd_hecke_identity)

    p = sub.add_parser("norm-factor", help="Euler-system norm-relation scalar",
                       parents=[local])
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(func=cmd_norm_factor)

    p = sub.add_parser("lfun", help="imprimitive Asai L-value", parents=[form])
    p.add_argument("--s", required=True)
    p.add_argument("--method", choices=("dirichlet", "euler", "both"), default="both")
    p.add_argument("--n-cutoff", type=_positive_int, default=4000)
    p.add_argument("--ell-cutoff", type=_positive_int, default=500)
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("eisenstein", help="evaluate E_alpha^(k)(tau, s)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--s", default="0")
    p.add_argument("--method", choices=("lattice", "continued", "both"),
                   default="continued")
    p.add_argument("--cutoff", type=_lattice_cutoff, default=200)
    p.set_defaults(func=cmd_eisenstein)

    p = sub.add_parser("kronecker-check", help="Kronecker-limit identity residual")
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--terms", type=_positive_int,
                   help="cap on the Siegel-product factors n < terms (default: 200, "
                        "or more where the working precision needs them)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_kronecker_check)

    p = sub.add_parser("mellin-check", help="diagonal Mellin / unfolding kernel",
                       parents=[form])
    p.add_argument("--sprime", type=float, default=14.0)
    p.add_argument("--y-cutoff", type=_positive_float, default=40.0)
    p.add_argument("--n-max", type=_positive_int, default=600)
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("constants", help="unfolding and regulator constants")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kprime", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--N", dest="level", type=_positive_int, default=1)
    p.add_argument("--disc", type=_positive_int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("padic-params", help="ordinary stabilisation data", parents=[ordinary])
    p.set_defaults(func=cmd_padic_params)

    p = sub.add_parser("nez", help="ordinary stabilisation data", parents=[ordinary])
    p.add_argument("--require", action="store_true", help="exit 2 when (NEZ) fails")
    p.set_defaults(func=cmd_nez)

    p = sub.add_parser("pr-factor", help="Perrin-Riou interpolation factor",
                       parents=[ordinary])
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--a-value", help="alpha_p * beta_q directly")
    p.add_argument("--eta", help="comma-separated generator exponents")
    p.set_defaults(func=cmd_pr_factor)

    p = sub.add_parser("gauss-sum", help="exact Gauss sum of a mod-p^r character")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--eta", help="comma-separated generator exponents (default 1; none mod 2)")
    p.set_defaults(func=cmd_gauss_sum)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,4,9")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_acceptance)

    return parser


# (exception kinds, error label, exit code), first match wins: every library error
# is a ValueError, so usage errors and hypothesis failures come before validation
_EXITS = (
    (UsageError, "usage", 64),
    ((NEZFailure, EisensteinPole, HypothesisError), "hypothesis", 2),
    (ValueError, "validation", 1),
    (OSError, "io", 1),
)


def _check_precision():
    """ASAILAB_PRECISION from MIN_PRECISION to _MAX_PRECISION bits, before any work."""
    try:
        if working_precision() <= _MAX_PRECISION:
            return
    except ValueError:
        pass
    raise UsageError(f"ASAILAB_PRECISION must be an integer from {MIN_PRECISION} to "
                     f"{_MAX_PRECISION}, got {os.environ['ASAILAB_PRECISION']!r}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.cmd:
            parser.print_help()
            return 64
        _check_precision()
        inputs, result, cutoffs, code = args.func(args)
        _emit(args, inputs, result, cutoffs)
        return code
    except (ValueError, OSError) as exc:  # every kind in _EXITS
        label, code = next((label, code) for kinds, label, code in _EXITS
                           if isinstance(exc, kinds))
        print(json.dumps({"error": label, "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
