"""Every public name in src/asailab has a caller outside the tests.

A static pass over the package source.  The entry points are `cli.main`,
`acceptance.run_acceptance`, the top-level statements of each module (they run
on import) and every name that the benchmark in perfbench/ mentions.  A
module-level function, class or assignment is reached when a reached body
mentions its name, as a bare name or as an attribute; a method when its class
is reached and its name is mentioned (dunders come with the class).  Names
are matched by spelling alone, so a collision can hide an unreached name but
never report a reached one.
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
