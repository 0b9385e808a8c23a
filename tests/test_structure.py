"""Module boundaries of the package, checked from its source files.

Each module keeps its `_`-prefixed names to itself, every name a module
lists in `__all__` exists and is reachable from `cli.main`, importing the
package loads no scipy, a norm report loads no mpmath, importing the
package, every norm route and validate load no numpy, no module imports
dataclasses and no command loads it, apply and convergence load no
kernel, and no module defines the generic range sums geom, pair or
_expansion.  The source is parsed rather than imported where it can be,
because importing `__main__` runs the CLI.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import optquad

SOURCES = sorted(Path(optquad.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def test_every_all_entry_resolves():
    checked = []
    missing = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not any(isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                   for node in tree.body):
            continue
        module = importlib.import_module(
            "optquad" if path.stem == "__init__" else f"optquad.{path.stem}")
        checked.append(module.__name__)
        missing += [f"{module.__name__}.{name}" for name in module.__all__
                    if not hasattr(module, name)]
    assert "optquad" in checked
    assert missing == []


def test_no_module_imports_dataclasses():
    # every record in the package is a namedtuple
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_defines_the_generic_range_sums():
    # the exact core takes its sums straight-line for its one layout
    # (norm._layout_sums); the generic range sums geom, pair and
    # _expansion are the tests' reference (tests/oracles.py) and have no
    # second home in the package, at any nesting
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}: {node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in ("geom", "pair", "_expansion")]
    assert found == []


def _bindings(tree):
    """Top-level name -> the def, class or assignment that binds it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        found[name.id] = node
    return found


def test_every_exported_name_is_reachable_from_the_cli():
    # a name-level walk from cli.main: a top-level binding is reached when a
    # reached binding mentions its name, through the package's own imports,
    # those inside functions included (the CLI's handlers import the array
    # modules where they run).  An exported name that nothing reaches is
    # code only the tests run.
    bindings, imports, exported = {}, {}, []
    for path in SOURCES:
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (node.module, alias.name)
        for name, node in _bindings(tree).items():
            bindings[module, name] = node
        if (module, "__all__") in bindings:
            exported += [(module, e.value) for e in bindings[module, "__all__"].value.elts]

    # the package imports its numpy-backed names on first access (its
    # __getattr__), each from the one module that exports it
    homes = {name: module for module, name in exported if module != "__init__"}
    for name in set(optquad.__all__) & set(homes):
        imports.setdefault(("__init__", name), (homes[name], name))

    def origin(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return module, name

    reached, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key in reached or key not in bindings:
            continue
        reached.add(key)
        todo += [origin(key[0], node.id) for node in ast.walk(bindings[key])
                 if isinstance(node, ast.Name)]
    assert ("cli", "main") in reached
    unreached = {origin(*key) for key in exported} - reached
    assert not unreached, sorted(f"{module}.{name}" for module, name in unreached)


def _fresh_stdout(code: str) -> str:
    """The stdout of `python -c code` in a fresh interpreter that imports this package."""
    src = str(Path(optquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    # a cold `import scipy.linalg` takes longer than importing the whole
    # package does; the O(n) solve is numpy only
    code = "import sys, optquad; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_stdout(code).strip() == "[]"


def test_norm_report_leaves_mpmath_unloaded():
    # the exact report and the printed rule's norm run in stdlib decimal,
    # so mpmath stays an independent test oracle; it would also add
    # 26-31 ms to every cold `import optquad`
    code = ("import contextlib, io, sys, optquad\n"
            "from optquad import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['norm', '--n', '16']) == 0\n"
            "    assert cli.main(['norm', '--n', '16', '--methods', 'quadform']) == 0\n"
            "    assert cli.main(['apply', '--n', '16', '--function', 'sin']) == 0\n"
            "    assert cli.main(['convergence', '--n-list', '2,4,8']) == 0\n"
            "print('mpmath' in sys.modules)")
    assert _fresh_stdout(code).strip() == "False"


def test_import_norm_report_and_validate_leave_numpy_unloaded():
    # every norm route, the report, the printed rule's norm and validate
    # run on the standard library; a cold `import numpy` takes about 150 ms, more
    # than the interpreter's own start.  No command loads dataclasses,
    # which imports inspect, and through it ast, dis and tokenize, about
    # 10 ms of a cold `import optquad`: every record is a namedtuple.  The
    # array commands load numpy, which imports inspect itself.
    code = ("import contextlib, io, sys, optquad\n"
            "from optquad import cli\n"
            "def loaded():\n"
            "    return [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules]\n"
            "seen = [loaded()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for methods in ('all', 'quadform', 'theorem2', 'multiplier', 'expanded'):\n"
            "        assert cli.main(['norm', '--n', '16', '--methods', methods]) == 0\n"
            "    assert cli.main(['validate', '--max-n', '8', '--tol', '1e-9']) == 1\n"
            "    seen.append(loaded())\n"
            "    assert cli.main(['coeffs', '--n', '8']) == 0\n"
            "    assert cli.main(['coeffs', '--n', '8', '--method', 'system']) == 0\n"
            "    assert cli.main(['apply', '--n', '8', '--function', 'sin']) == 0\n"
            "    assert cli.main(['convergence', '--n-list', '2,4,8', '--function', 'sin']) == 0\n"
            "    seen.append(loaded())\n"
            "print(seen)")
    assert _fresh_stdout(code).strip() == "[[], [], ['inspect', 'numpy']]"


def test_apply_and_convergence_leave_the_kernel_unloaded():
    # every catalog function carries its seminorm in closed form, so the
    # error-bound audit integrates nothing; only `coeffs --method system`
    # loads the kernel (through wiener_hopf), for the residual of the
    # stationarity system, and `coeffs --method closed` loads neither
    code = ("import contextlib, io, sys\n"
            "from optquad import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['apply', '--n', '16', '--function', 'sin']) == 0\n"
            "    assert cli.main(['convergence', '--n-list', '2,4,8', '--function', 'exp']) == 0\n"
            "    assert cli.main(['coeffs', '--n', '8']) == 0\n"
            "print(sorted(m for m in ('optquad.kernel', 'optquad.wiener_hopf') if m in sys.modules))")
    assert _fresh_stdout(code).strip() == "[]"
