"""Every public name and every optional parameter in src/asailab has a caller
outside the tests.

A static pass over the package source.  The entry points are `cli.main`,
`acceptance.run_acceptance`, the top-level statements of each module (they run
on import) and every name that the benchmark in perfbench/ mentions.  A
module-level function, class or assignment is reached when a reached body
mentions its name, as a bare name or as an attribute; a method when its class
is reached and its name is mentioned (dunders come with the class).

A defaulted parameter of a public def is set when some call in the package or
in perfbench/ passes it: by keyword, by position, through a * or ** splat, or
through functools.partial.  Names are matched by spelling alone, so a
collision can hide an unreached name or an unset parameter but never report a
reached or a set one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asailab"
PERFBENCH = ROOT / "perfbench"
ENTRY_POINTS = {("cli", "main"), ("acceptance", "run_acceptance")}


def _mentions(*nodes):
    """The names and attribute names mentioned in the given AST subtrees."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """({key: mentions of its body}, mentions of top-level statements), with
    key (module, name) for a module-level def, class or assignment target and
    (module, class, method) for a method."""
    defs, top = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[module, stmt.name] = _mentions(stmt)
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [s for s in stmt.body if s not in methods]
                defs[module, stmt.name] = _mentions(*stmt.bases, *stmt.decorator_list, *rest)
                for meth in methods:
                    defs[module, stmt.name, meth.name] = _mentions(meth)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in _mentions(*targets):
                    defs[module, name] = _mentions(stmt.value) if stmt.value else set()
            else:
                top |= _mentions(stmt)
    return defs, top


def _unreached():
    defs, mentioned = _definitions()
    for path in PERFBENCH.glob("*.py"):
        mentioned |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
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
            owner_ok = len(key) == 2 or key[:2] in reached
            dunder = name.startswith("__") and name.endswith("__")
            if owner_ok and (name in mentioned or (len(key) == 3 and dunder)):
                reached.add(key)
                mentioned |= body
                changed = True
    public = [key for key in defs
              if not any(part.startswith("_") for part in key[1:])]
    return sorted(".".join(key) for key in public if key not in reached)


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
