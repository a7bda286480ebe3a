"""Command-line front end.

Every subcommand validates its inputs, computes, and writes one deterministic
JSON report to stdout (or --out).  Exit codes: 0 success, 1 validation
failure, 2 computational hypothesis failure (e.g. a required (NEZ) check came
back false, or a pole was hit), 64 usage errors.  ASAILAB_PRECISION overrides
the default working precision (bits).
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import mpmath

from . import __version__
from .precision import working_precision
from .coeffs import parse_rational
from .quadfield import (RealQuadraticField, QuadFieldError, ideal_label,
                        totally_positive_generator, NotPrincipalError)
from .eigenform import (EigenformError, Weight, base_change,
                        check_hecke_relations, discriminant_form_ap,
                        load_eigenform)
from . import heckealg
from .heckealg import HeckeAlgError
from .asairep import (AsaiRepError, HypothesisError, asai_charpoly,
                      asai_charpoly_via_induction,
                      euler_system_norm_factor, verify_proj_Pl)
from .eisenstein import (EisensteinError, EisensteinPole, diagonal_mellin_check,
                         eisenstein_continued, eisenstein_lattice_sum,
                         kronecker_limit_check, siegel_unit)
from .lseries import (AsaiLSeries, LSeriesError, euler_product_L,
                      imprimitive_L, regulator_constant, unfolding_constant)
from .characters import DirichletCharacter, unit_group_structure
from .padic import (NEZFailure, OrdinaryData, PadicError, PoleError, check_NEZ,
                    gauss_sum, pr_interp_factor, stabilized_params)
from .acceptance import _synthetic_form, run_acceptance


class UsageError(ValueError):
    pass


def parse_complex(text):
    """Complex literals 'a+bi' with exact rational parts ('i', '2i', '1/2-3i', ...)."""
    t = str(text).strip().replace(" ", "")
    if not t:
        raise UsageError("empty complex literal")
    if not t.endswith(("i", "j")):
        return complex(float(parse_rational(t)), 0.0)
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
    return complex(float(re), float(im))


def _emit(args, command, inputs, result, cutoffs=None):
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "provenance": {"version": __version__,
                       "precision": working_precision(None),
                       "cutoffs": cutoffs or {}},
    }
    text = json.dumps(report, indent=1, sort_keys=True, default=_json_default)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (mpmath.mpf,)):
        return float(obj)
    if isinstance(obj, (complex, mpmath.mpc)):
        return [float(mpmath.re(obj)), float(mpmath.im(obj))]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return repr(obj)


def _mk_synthetic_form(d, w, ell, lambdas, eps=1):
    n_primes = len(RealQuadraticField(d).primes_above(ell))
    if n_primes != len(lambdas):
        raise UsageError(f"{n_primes} primes above {ell} but {len(lambdas)} lambda values")
    return _synthetic_form(d, Weight(w, w, 0, 0), {ell: lambdas}, {ell: eps} if eps != 1 else None)


def _load_form_arg(args):
    if getattr(args, "form", None):
        return load_eigenform(args.form)
    if getattr(args, "delta", False):
        return base_change(discriminant_form_ap(args.bound), 12, None,
                           RealQuadraticField(args.d or 5), bound=args.bound)
    raise UsageError("supply --form FILE or --delta")


def _positive_int(text):
    """argparse type for counts and cutoffs: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# -- subcommand handlers -------------------------------------------------------

def cmd_field_info(args):
    field = RealQuadraticField(args.d)
    unit, nrm = field.fundamental_unit()
    a, b = field.omega_coords(unit)
    res = {
        "d": field.d, "discriminant": field.disc,
        "omega": {"trace": field.omega_trace, "norm": field.omega_norm},
        "fundamental_unit": {"a": a, "b": b, "theta1": float(unit.to_mpf()), "norm": nrm},
        "different": {"hnf": field.different().hnf(),
                      "norm": field.different().norm()},
    }
    if args.ell:
        st = field.splitting_type(args.ell)
        res["splitting"] = {"ell": args.ell, "kind": st.kind.value,
                            "primes": [{"hnf": p.hnf(), "label": ideal_label(p)}
                                       for p in st.primes]}
        if st.is_split:
            gens = []
            for p in st.primes:
                try:
                    g = totally_positive_generator(p)
                except NotPrincipalError:
                    g = None
                gens.append(None if g is None else dict(zip("ab", field.omega_coords(g))))
            res["splitting"]["totally_positive_generators"] = gens
    _emit(args, "field-info", {"d": args.d, "ell": args.ell}, res)
    return 0


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
    _emit(args, "form-validate", {"form": args.form, "bound": args.bound}, res)
    return 0 if not violations else 2


def cmd_base_change(args):
    field = RealQuadraticField(args.d)
    if args.ap_file:
        with open(args.ap_file, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        ap = {int(p): parse_rational(v) for p, v in raw.items()}
    else:
        ap = discriminant_form_ap(args.bound)
        if args.weight != 12:
            raise UsageError("built-in coefficients are the weight-12 discriminant form")
    form = base_change(ap, args.weight, None, field, bound=args.bound)
    if args.save:
        form.save(args.save)
    res = {"d": args.d, "classical_weight": args.weight, "bound": args.bound,
           "eigenvalues_stored": len(form.eigenvalues),
           "sample": {ideal_label(_ideal_from_key(form, key)): form.eigenvalues[key]
                      for key in sorted(form.eigenvalues)[:8]},
           "saved_to": args.save, "notes": form.notes}
    _emit(args, "base-change", {"d": args.d, "weight": args.weight},
          res, {"bound": args.bound})
    return 0


def _ideal_from_key(form, key):
    from .quadfield import IdealRep
    return IdealRep(form.field, *key)


def cmd_euler_factor(args):
    lambdas = [parse_rational(x) for x in args.lam]
    form = _mk_synthetic_form(args.d, args.w, args.ell, lambdas, eps=int(args.eps))
    pl = asai_charpoly(form, args.ell)
    via = asai_charpoly_via_induction(form, args.ell)
    res = {"splitting": pl.kind, "coefficients": pl.coeffs,
           "tensor_induction_coefficients": via.coeffs,
           "agree": pl == via,
           "normalization": "includes the (t+t') twist: T(l) -> l^{-(t+t')} lambda((l))"}
    _emit(args, "euler-factor",
          {"d": args.d, "ell": args.ell, "lambda": args.lam, "w": args.w}, res)
    return 0


def cmd_verify_pl(args):
    lambdas = [parse_rational(x) for x in args.lam]
    form = _mk_synthetic_form(args.d, args.w, args.ell, lambdas, eps=int(args.eps))
    ok = verify_proj_Pl(form, args.ell)
    _emit(args, "verify-pl",
          {"d": args.d, "ell": args.ell, "lambda": args.lam, "w": args.w},
          {"agree": ok})
    return 0 if ok else 2


def cmd_hecke_identity(args):
    labels = {}
    if args.labels:
        spec = json.loads(args.labels)
        for name, info in spec.items():
            labels[name] = heckealg.PrimeLabel(
                name, int(info.get("norm", 1)), bool(info.get("unit", False)),
                info.get("conj"))
    lhs = parse_hecke_expression(args.expr, labels).normalize()
    res = {"normal_form": repr(lhs)}
    if args.expr2:
        rhs = parse_hecke_expression(args.expr2, labels).normalize()
        res["normal_form_rhs"] = repr(rhs)
        res["equal"] = lhs == rhs
    if args.split_x2:
        lam, lambar = heckealg.split_labels(args.split_x2)
        res["split_x2_identity"] = heckealg.verify_split_x2_identity(lam, lambar)
    _emit(args, "hecke-identity",
          {"expr": args.expr, "expr2": args.expr2, "labels": args.labels,
           "split_x2": args.split_x2}, res)
    if "equal" in res and not res["equal"]:
        return 2
    if "split_x2_identity" in res and not res["split_x2_identity"]:
        return 2
    return 0


def cmd_norm_factor(args):
    lambdas = [parse_rational(x) for x in args.lam]
    form = _mk_synthetic_form(args.d, args.w, args.ell, lambdas, eps=int(args.eps))
    elt = euler_system_norm_factor(form, args.ell, args.j, args.m)
    res = {"group_ring_modulus": args.m, "element": elt.to_json(),
           "is_zero": elt.is_zero()}
    _emit(args, "norm-factor",
          {"d": args.d, "ell": args.ell, "j": args.j, "m": args.m,
           "lambda": args.lam, "w": args.w}, res)
    return 0


def cmd_lfun(args):
    form = _load_form_arg(args)
    series = AsaiLSeries(form)
    s = parse_complex(args.s)
    normalization = "L_(N)(chi, 2s-2-k-k') * sum alpha(n) n^-s"
    pieces = {}
    if args.method in ("dirichlet", "both"):
        val, rep = imprimitive_L(series, s, n_cutoff=args.n_cutoff)
        pieces["dirichlet"] = {"value": [float(mpmath.re(val)), float(mpmath.im(val))],
                               "truncation": rep, "normalization": normalization}
    if args.method in ("euler", "both"):
        val, rep = euler_product_L(series, s, ell_cutoff=args.ell_cutoff)
        pieces["euler_product"] = {"value": [float(mpmath.re(val)), float(mpmath.im(val))],
                                   "truncation": rep, "normalization": normalization}
    if args.method == "both":
        a = complex(*pieces["dirichlet"]["value"])
        b = complex(*pieces["euler_product"]["value"])
        res = dict(pieces)
        res["relative_difference"] = abs(a - b) / max(abs(a), 1e-300)
    else:
        # single-method reports use the flat {value, truncation, normalization} shape
        res = pieces["dirichlet" if args.method == "dirichlet" else "euler_product"]
    _emit(args, "lfun", {"s": args.s, "method": args.method}, res,
          {"n_cutoff": args.n_cutoff, "ell_cutoff": args.ell_cutoff})
    return 0


def cmd_eisenstein(args):
    alpha = parse_rational(args.alpha)
    tau = parse_complex(args.tau)
    s = parse_complex(args.s)
    s = s.real if s.imag == 0 else s
    res = {}
    if args.method in ("continued", "both"):
        val = eisenstein_continued(args.k, alpha, tau, s)
        res["continued"] = [float(mpmath.re(val)), float(mpmath.im(val))]
    if args.method in ("lattice", "both"):
        val = eisenstein_lattice_sum(args.k, alpha, tau, s, args.cutoff)
        res["lattice"] = [val.real, val.imag]
    if args.method == "both":
        res["difference"] = abs(complex(*res["continued"]) - complex(*res["lattice"]))
    _emit(args, "eisenstein",
          {"k": args.k, "alpha": args.alpha, "tau": args.tau, "s": args.s},
          res, {"cutoff": args.cutoff})
    return 0


def cmd_kronecker_check(args):
    alpha = parse_rational(args.alpha)
    tau = parse_complex(args.tau)
    resid = kronecker_limit_check(alpha, tau, terms=args.terms)
    g = siegel_unit(alpha, tau, terms=args.terms)
    res = {"residual": float(resid), "tolerance": args.tol,
           "passes": float(resid) < args.tol,
           "siegel_unit_abs": float(abs(g))}
    _emit(args, "kronecker-check", {"alpha": args.alpha, "tau": args.tau},
          res, {"terms": args.terms})
    return 0 if res["passes"] else 2


def cmd_mellin_check(args):
    form = _load_form_arg(args)
    lhs, rhs, resid = diagonal_mellin_check(form, args.sprime, y_cutoff=args.y_cutoff,
                                            n_max=args.n_max)
    res = {"lhs": lhs, "rhs": rhs, "relative_residual": resid,
           "normalization": "rhs = Gamma(s') (sqrt(Delta)/(4 pi))^{s'} "
                            "sum alpha(n) n^{-s'}"}
    _emit(args, "mellin-check", {"sprime": args.sprime}, res,
          {"y_cutoff": args.y_cutoff, "n_max": args.n_max})
    return 0


def cmd_constants(args):
    res = {}
    if args.kprime <= args.k:
        res["unfolding"] = unfolding_constant(args.k, args.kprime, args.j,
                                              args.level, args.disc).to_json()
    res["regulator"] = regulator_constant(args.k, args.kprime, args.j,
                                          args.disc).to_json()
    _emit(args, "constants",
          {"k": args.k, "kprime": args.kprime, "j": args.j,
           "N": args.level, "disc": args.disc}, res)
    return 0


def _ordinary_from_args(args):
    if args.form:
        form = load_eigenform(args.form)
        return stabilized_params(form, args.p)
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
        "m_p_choice": data.m_choice,
        "m_p_eigenvalue": repr(data.m_p_eigenvalue()),
        "notes": data.notes,
    }
    _emit(args, "padic-params", {"p": args.p}, res)
    return 0


def cmd_nez(args):
    data = _ordinary_from_args(args)
    holds, witness = check_NEZ(data)
    res = {"nez": holds, "witness": witness}
    _emit(args, "nez", {"p": args.p, "k": args.k, "kprime": args.kprime}, res)
    if args.require and not holds:
        return 2
    return 0


def _eta_arg(args):
    """The character mod p^r named by the --eta generator exponents."""
    modulus = args.p ** args.r
    gens = unit_group_structure(modulus)
    exps = [int(x) for x in (args.eta or "0").split(",")]
    if len(exps) != len(gens):
        raise UsageError(f"eta needs {len(gens)} exponents for modulus {modulus}")
    return DirichletCharacter(modulus, exps)


def cmd_pr_factor(args):
    eta = _eta_arg(args) if args.r > 0 else None
    if args.a_value is not None:
        fac = pr_interp_factor(parse_rational(args.a_value), args.j, args.r, eta,
                               p=args.p, kprime=args.kprime)
    else:
        data = _ordinary_from_args(args)
        fac = pr_interp_factor(data, args.j, args.r, eta)
    res = {"scalar": repr(fac.scalar), "tag": fac.tag,
           "tag_constant": fac.tag_constant,
           "gauss_inverse": None if fac.gauss_inverse is None else repr(fac.gauss_inverse)}
    try:
        num = fac.numeric()
        res["numeric"] = [float(mpmath.re(num)), float(mpmath.im(num))]
    except PadicError:
        res["numeric"] = None
    _emit(args, "pr-factor",
          {"p": args.p, "j": args.j, "r": args.r, "eta": args.eta}, res)
    return 0


def cmd_gauss_sum(args):
    eta = _eta_arg(args)
    g = gauss_sum(eta, args.p, args.r)
    norm = (g * g.conjugate()).rational_value()
    num = g.to_mpc()
    res = {"gauss_sum": repr(g), "norm_squared": norm,
           "numeric": [float(mpmath.re(num)), float(mpmath.im(num))],
           "character": {"modulus": eta.modulus, "exponents": eta.exponents,
                         "order": eta.order, "conductor": eta.conductor()}}
    _emit(args, "gauss-sum", {"p": args.p, "r": args.r, "eta": args.eta}, res)
    return 0


def cmd_acceptance(args):
    selection = None
    if args.criteria:
        selection = [int(x) for x in args.criteria.split(",")]
    ok, results = run_acceptance(selection, echo=not args.quiet)
    _emit(args, "acceptance", {"criteria": args.criteria},
          {"all_passed": ok, "results": results})
    return 0 if ok else 2


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
        node = parse_atom()
        if peek() == "^":
            take("^")
            exp = int(take())
            node = node ** exp
        return node

    def parse_atom():
        tok = take()
        if tok == "(":
            node = parse_expr()
            take(")")
            return node
        if tok == "-":
            return -parse_atom()
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

    def parse_arg():
        arg = {}
        while True:
            name = take()
            if name not in labels:
                raise HeckeAlgError(f"label {name!r} not declared in the header")
            exp = 1
            if peek() == "^":
                take("^")
                exp = int(take())
            lab = labels[name]
            arg[lab] = arg.get(lab, 0) + exp
            if peek() == "*":
                take("*")
                continue
            return arg

    node = parse_expr()
    if pos[0] != len(tokens):
        raise HeckeAlgError(f"trailing input at token {pos[0]}")
    return node


def _tokenise(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            out.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and (text[j].isalnum() or text[j] in "_/"):
            j += 1
        word = text[i:j]
        if not word:
            raise HeckeAlgError(f"stray character {ch!r}")
        out.append(word)
        i = j
    return out


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
    parser = _Parser(prog="asailab", description=__doc__)
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("field-info", help="real quadratic field invariants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("form-validate", help="load a form and check Hecke relations")
    p.add_argument("--form", required=True)
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(func=cmd_form_validate)

    p = sub.add_parser("base-change", help="synthesise a base-change eigenform")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--ap-file")
    p.add_argument("--bound", type=int, default=500)
    p.add_argument("--save")
    p.set_defaults(func=cmd_base_change)

    for name, fn in (("euler-factor", cmd_euler_factor), ("verify-pl", cmd_verify_pl)):
        p = sub.add_parser(name, help="Asai Euler factor from local data")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--lambda", dest="lam", action="append", required=True,
                       help="lambda at a prime above ell (repeat for split primes)")
        p.add_argument("--w", type=int, default=2, help="motivic weight w = k+2 (t = 0)")
        p.add_argument("--eps", default="1")
        p.set_defaults(func=fn)

    p = sub.add_parser("hecke-identity", help="normalise/compare symbolic expressions")
    p.add_argument("--expr", required=True)
    p.add_argument("--expr2")
    p.add_argument("--labels", help='JSON: {"l1": {"norm": 11}, ...}')
    p.add_argument("--split-x2", type=int, dest="split_x2",
                   help="also verify the split X^2 identity at this prime")
    p.set_defaults(func=cmd_hecke_identity)

    p = sub.add_parser("norm-factor", help="Euler-system norm-relation scalar")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", action="append", required=True)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--eps", default="1")
    p.set_defaults(func=cmd_norm_factor)

    p = sub.add_parser("lfun", help="imprimitive Asai L-value")
    p.add_argument("--form")
    p.add_argument("--delta", action="store_true",
                   help="use the discriminant-form base change over Q(sqrt(d))")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--bound", type=_positive_int, default=4000,
                   help="coefficient bound for --delta; keep >= --n-cutoff")
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
    p.add_argument("--cutoff", type=int, default=200)
    p.set_defaults(func=cmd_eisenstein)

    p = sub.add_parser("kronecker-check", help="Kronecker-limit identity residual")
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_kronecker_check)

    p = sub.add_parser("mellin-check", help="diagonal Mellin / unfolding kernel")
    p.add_argument("--form")
    p.add_argument("--delta", action="store_true")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--bound", type=_positive_int, default=800)
    p.add_argument("--sprime", type=float, default=14.0)
    p.add_argument("--y-cutoff", type=float, default=40.0)
    p.add_argument("--n-max", type=_positive_int, default=600)
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("constants", help="unfolding and regulator constants")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kprime", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--N", dest="level", type=int, default=1)
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    for name, fn in (("padic-params", cmd_padic_params), ("nez", cmd_nez)):
        p = sub.add_parser(name, help="ordinary stabilisation data")
        p.add_argument("--form")
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--kprime", type=int, default=0)
        p.add_argument("--alpha-p")
        p.add_argument("--alpha-q")
        p.add_argument("--eps-p", default="1")
        p.add_argument("--eps-q", default="1")
        if name == "nez":
            p.add_argument("--require", action="store_true",
                           help="exit 2 when (NEZ) fails")
        p.set_defaults(func=fn)

    p = sub.add_parser("pr-factor", help="Perrin-Riou interpolation factor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--kprime", type=int, default=0)
    p.add_argument("--a-value", help="alpha_p * beta_q directly")
    p.add_argument("--alpha-p")
    p.add_argument("--alpha-q")
    p.add_argument("--eps-p", default="1")
    p.add_argument("--eps-q", default="1")
    p.add_argument("--eta", help="comma-separated generator exponents")
    p.add_argument("--form")
    p.set_defaults(func=cmd_pr_factor)

    p = sub.add_parser("gauss-sum", help="exact Gauss sum of a mod-p^r character")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--eta", help="comma-separated generator exponents", default="1")
    p.set_defaults(func=cmd_gauss_sum)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,4,9")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_acceptance)

    return parser


USAGE_EXIT = 64
VALIDATION_EXIT = 1
HYPOTHESIS_EXIT = 2

_VALIDATION_ERRORS = (QuadFieldError, EigenformError, HeckeAlgError, AsaiRepError,
                      LSeriesError, EisensteinError, PadicError, ValueError)
_HYPOTHESIS_ERRORS = (NEZFailure, PoleError, EisensteinPole, NotPrincipalError,
                      HypothesisError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    if not getattr(args, "cmd", None):
        parser.print_help()
        return USAGE_EXIT
    try:
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except _HYPOTHESIS_ERRORS as exc:
        print(json.dumps({"error": "hypothesis", "message": str(exc)}), file=sys.stderr)
        return HYPOTHESIS_EXIT
    except _VALIDATION_ERRORS as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return VALIDATION_EXIT
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
