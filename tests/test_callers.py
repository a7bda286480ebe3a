"""Every public name and every optional parameter in src/asailab has a caller
outside the tests.

A static pass over the package source.  The entry points are `cli.main`,
`acceptance.run_acceptance`, the top-level statements of each module (they run
on import) and every name that the benchmark in perfbench/ mentions.  A
module-level function, class or assignment is reached when a reached body
mentions its name, as a bare name or as an attribute; a method when its class
is reached and its name is mentioned as an attribute (dunders come with the
class).  A bare name never reaches a method: a module function of the same
name does not keep a method alive.

A defaulted parameter of a public def is set when some call in the package or
in perfbench/ passes it: by keyword, by position, through a * or ** splat, or
through functools.partial.  Names are matched by spelling alone, so a
collision can hide an unreached name or an unset parameter but never report a
reached or a set one.  The blind spot that remains is an attribute collision:
`args.alpha` in the CLI would keep a method `alpha` of any reached class
alive, and a call of `x.conjugate()` keeps every reached class's `conjugate`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asailab"
PERFBENCH = ROOT / "perfbench"
ENTRY_POINTS = {("cli", "main"), ("acceptance", "run_acceptance")}


class _Mentions:
    """The bare names and the attribute names mentioned in some AST subtrees."""

    def __init__(self, *nodes):
        self.names, self.attrs = set(), set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    self.names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    self.attrs.add(sub.attr)

    def __ior__(self, other):
        self.names |= other.names
        self.attrs |= other.attrs
        return self


def _definitions(package=PACKAGE):
    """({key: mentions of its body}, mentions of top-level statements), with
    key (module, name) for a module-level def, class or assignment target and
    (module, class, method) for a method."""
    defs, top = {}, _Mentions()
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[module, stmt.name] = _Mentions(stmt)
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [s for s in stmt.body if s not in methods]
                defs[module, stmt.name] = _Mentions(*stmt.bases, *stmt.decorator_list, *rest)
                for meth in methods:
                    defs[module, stmt.name, meth.name] = _Mentions(meth)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                target = _Mentions(*targets)
                for name in target.names | target.attrs:
                    defs[module, name] = _Mentions(stmt.value) if stmt.value else _Mentions()
            else:
                top |= _Mentions(stmt)
    return defs, top


def public_names(package=PACKAGE):
    """The keys of _definitions(package) with no part that starts with '_'."""
    return [key for key in _definitions(package)[0]
            if not any(part.startswith("_") for part in key[1:])]


def _unreached():
    defs, mentioned = _definitions()
    for path in PERFBENCH.glob("*.py"):
        mentioned |= _Mentions(ast.parse(path.read_text(encoding="utf-8")))
    reached = set()
    for key in ENTRY_POINTS:
        reached.add(key)
        mentioned |= defs[key]
    changed = True
    while changed:
        changed = False
        for key, body in defs.items():
            if key in reached:
                continue
            name = key[-1]
            if len(key) == 2:
                hit = name in mentioned.names or name in mentioned.attrs
            else:
                dunder = name.startswith("__") and name.endswith("__")
                hit = key[:2] in reached and (dunder or name in mentioned.attrs)
            if hit:
                reached.add(key)
                mentioned |= body
                changed = True
    return sorted(".".join(key) for key in public_names() if key not in reached)


def test_every_public_name_has_a_caller():
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ not in this checkout")
    unreached = _unreached()
    assert not unreached, f"public names reached only by tests: {unreached}"


def optional_parameters(package=PACKAGE):
    """{(module, def, parameter): (callee, position)} for each defaulted
    parameter of a public def in package, def being 'f', 'Class.method' or
    'Class.__init__'.  callee is the name a call spells (the class for
    __init__), and position the parameter's index among a call's positional
    arguments, or None if it is keyword-only."""
    out = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                defs = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(f"{stmt.name}.{f.name}", stmt.name if f.name == "__init__" else f.name,
                         f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                     for d in f.decorator_list) else 1)
                        for f in stmt.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for key, callee, fn, bound in defs:
                if any(part.startswith("_") for part in key.removesuffix(".__init__").split(".")):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out[path.stem, key, arg.arg] = callee, i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[path.stem, key, arg.arg] = callee, None
    return out


def _calls():
    """(name, positional arguments, keywords) of every call in the package and
    in perfbench/, functools.partial(f, ...) read as a call of f."""
    def name(func):
        return getattr(func, "id", None) or getattr(func, "attr", None)
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                args = node.args
                if name(node.func) == "partial" and args:
                    yield name(args[0]), args[1:], node.keywords
                else:
                    yield name(node.func), args, node.keywords


def test_every_optional_parameter_is_set_outside_the_tests():
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ not in this checkout")
    calls = list(_calls())

    def is_set(callee, param, position):
        return any(name == callee and (
            any(kw.arg in (param, None) for kw in keywords)
            or position is not None and (len(args) > position
                                         or any(isinstance(a, ast.Starred) for a in args)))
            for name, args, keywords in calls)

    unset = [f"{module}.{fn}({param})"
             for (module, fn, param), (callee, position) in optional_parameters().items()
             if not is_set(callee, param, position)]
    assert not unset, f"optional parameters set only by tests: {unset}"
