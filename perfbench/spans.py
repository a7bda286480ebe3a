"""Span tracing of asailab from outside the package.

Each traced public function or method is replaced, in every ``asailab.*``
namespace that binds it (``from .x import f`` copies the binding), by a
wrapper that records one span: name, start, end, parent span and task id.
Spans are kept in flat arrays in memory and written out once at the end.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute or Class.attribute, span name).  Every arithmetic
# dunder of QuadElt records under one name, and so do the methods of the
# character and cyclotomic classes: those layers are judged as a whole.
_QUADELT_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                "__truediv__", "__rtruediv__", "__pow__")
TARGETS = [
    ("quadfield", "splitting_type", "quadfield.splitting_type"),
    ("quadfield", "fundamental_unit", "quadfield.fundamental_unit"),
    ("quadfield", "find_generator", "quadfield.find_generator"),
    ("quadfield", "totally_positive_generator", "quadfield.totally_positive_generator"),
    ("quadfield", "IdealRep.__mul__", "quadfield.IdealRep.mul"),
    ("quadfield", "IdealRep.factor", "quadfield.IdealRep.factor"),
    *[("coeffs", f"QuadElt.{op}", "coeffs.QuadElt") for op in _QUADELT_OPS],
    ("heckealg", "HeckePolynomial.normalize", "heckealg.HeckePolynomial.normalize"),
    ("heckealg", "HeckePolynomial.__mul__", "heckealg.HeckePolynomial.mul"),
    ("asairep", "charpoly_reversed", "asairep.charpoly_reversed"),
    ("asairep", "asai_charpoly", "asairep.asai_charpoly"),
    ("asairep", "euler_system_norm_factor", "asairep.euler_system_norm_factor"),
    ("eigenform", "discriminant_form_ap", "eigenform.discriminant_form_ap"),
    ("eigenform", "base_change", "eigenform.base_change"),
    ("eigenform", "HilbertEigenform.lambda_rational",
     "eigenform.HilbertEigenform.lambda_rational"),
    ("lseries", "dirichlet_alpha_table", "lseries.dirichlet_alpha_table"),
    ("lseries", "AsaiLSeries.alpha_table", "lseries.AsaiLSeries.alpha_table"),
    ("lseries", "imprimitive_L", "lseries.imprimitive_L"),
    ("lseries", "euler_product_L", "lseries.euler_product_L"),
    ("lseries", "euler_product_coefficients", "lseries.euler_product_coefficients"),
    ("lseries", "imprimitive_coefficients", "lseries.imprimitive_coefficients"),
    ("eisenstein", "eisenstein_continued", "eisenstein.eisenstein_continued"),
    ("eisenstein", "eisenstein_lattice_sum", "eisenstein.eisenstein_lattice_sum"),
    ("eisenstein", "siegel_unit", "eisenstein.siegel_unit"),
    ("eisenstein", "kronecker_limit_check", "eisenstein.kronecker_limit_check"),
    ("eisenstein", "diagonal_mellin_check", "eisenstein.diagonal_mellin_check"),
    *[("characters", f"DirichletCharacter.{m}", "characters.DirichletCharacter")
      for m in ("__call__", "value_mpc", "all_characters", "conductor")],
    ("characters", "unit_group_structure", "characters.unit_group_structure"),
    *[("cyclo", f"CyclotomicValue.{m}", "cyclo.CyclotomicValue")
      for m in ("from_exponents", "__add__", "__mul__", "to_mpc")],
    ("cli", "main", "cli.main"),
]

_ALL = ("calls", "self_s", "errors")
# metric name -> unit; every name is <span name>.<stat> unless derived below
PER_LAYER = {}
for _span, _stats in [
        ("quadfield.splitting_type", ("calls", "self_s")),
        ("quadfield.fundamental_unit", _ALL),
        ("quadfield.find_generator", _ALL),
        ("quadfield.totally_positive_generator", ("self_s",)),
        ("quadfield.IdealRep.mul", _ALL),
        ("quadfield.IdealRep.factor", _ALL),
        ("coeffs.QuadElt", ("self_s",)),
        ("heckealg.HeckePolynomial.normalize", _ALL),
        ("heckealg.HeckePolynomial.mul", _ALL),
        ("asairep.charpoly_reversed", _ALL),
        ("asairep.asai_charpoly", _ALL),
        ("asairep.euler_system_norm_factor", ("self_s",)),
        ("eigenform.discriminant_form_ap", _ALL),
        ("eigenform.base_change", ("self_s",)),
        ("eigenform.HilbertEigenform.lambda_rational", _ALL),
        ("lseries.dirichlet_alpha_table", _ALL),
        ("lseries.imprimitive_L", ("self_s",)),
        ("lseries.euler_product_L", ("self_s",)),
        ("lseries.euler_product_coefficients", ("self_s",)),
        ("lseries.imprimitive_coefficients", ("self_s",)),
        ("eisenstein.eisenstein_continued", _ALL),
        ("eisenstein.eisenstein_lattice_sum", ("self_s",)),
        ("eisenstein.siegel_unit", ("self_s",)),
        ("eisenstein.kronecker_limit_check", ("self_s",)),
        ("eisenstein.diagonal_mellin_check", ("self_s",)),
        ("characters.DirichletCharacter", ("calls", "self_s")),
        ("characters.unit_group_structure", ("calls", "self_s")),
        ("cyclo.CyclotomicValue", ("calls", "self_s")),
        ("cli.main", ("self_s",))]:
    for _stat in _stats:
        PER_LAYER[f"{_span}.{_stat}"] = "s" if _stat == "self_s" else "count"
PER_LAYER.update({
    "quadfield.splitting_type.repeat_ratio": "ratio",
    "coeffs.QuadElt.ops": "count",
    "lseries.alpha_table.rebuild_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
})

_MARK = "__perfbench_span__"


class Tracer:
    """Records spans while ``active``; install() patches, restore() undoes."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()
        self.repeats = Counter()
        self._seen = {}
        self._stack = [-1]
        self._patches = []
        self.active = False
        self.task_id = -1

    def _wrap(self, span, fn, key=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        seen = self._seen.setdefault(span, set())
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(*args)
                if k in seen:
                    tracer.repeats[span] += 1
                seen.add(k)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.task.append(tracer.task_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[span] += 1
                raise
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()

        setattr(wrapper, _MARK, span)
        return wrapper

    def install(self):
        mods = _asailab_modules()
        for modname, attr, span in TARGETS:
            mod = sys.modules[f"asailab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(span, orig.__func__))
                else:
                    new = self._wrap(span, orig)
                # aliases such as __rmul__ = __mul__ share the original object
                for name, val in list(vars(owner).items()):
                    if val is orig:
                        self._patch(owner, name, orig, new)
                continue
            orig = getattr(mod, attr)
            key = (lambda field, ell: (field.d, int(ell))) \
                if span == "quadfield.splitting_type" else None
            new = self._wrap(span, orig, key)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, name, orig, new)

    def _patch(self, owner, name, orig, new):
        setattr(owner, name, new)
        self._patches.append((owner, name, orig))

    def restore(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)
        for m in _asailab_modules():
            for holder in [m, *[v for v in vars(m).values() if isinstance(v, type)]]:
                for name, val in vars(holder).items():
                    inner = getattr(val, "__func__", val)
                    if hasattr(inner, _MARK):
                        raise RuntimeError(f"wrapper left on {m.__name__}.{name}")

    def arrays(self):
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "task": np.frombuffer(self.task, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self):
        """Per-layer metrics derived from the recorded spans."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        stats = {}
        for i, span in enumerate(self.names):
            stats[f"{span}.calls"] = int(calls[i])
            stats[f"{span}.self_s"] = float(self_s[i])
            stats[f"{span}.errors"] = self.errors[span]
        out = {name: stats.get(name, 0) for name in PER_LAYER}
        st_calls = stats["quadfield.splitting_type.calls"]
        out["quadfield.splitting_type.repeat_ratio"] = \
            self.repeats["quadfield.splitting_type"] / st_calls if st_calls else 0.0
        out["coeffs.QuadElt.ops"] = stats["coeffs.QuadElt.calls"]
        table_calls = stats["lseries.AsaiLSeries.alpha_table.calls"]
        out["lseries.alpha_table.rebuild_ratio"] = \
            stats["lseries.dirichlet_alpha_table.calls"] / table_calls if table_calls else 0.0
        return out


def _asailab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "asailab" or name.startswith("asailab."))]
