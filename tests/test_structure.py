"""Module boundaries of the package, checked from its source files.

Each module keeps its `_`-prefixed names to itself, every name a module
lists in `__all__` exists, the dense system is assembled and factored
only inside `wiener_hopf`, and importing the package loads no scipy.  The
source is parsed rather than imported where it can be, because importing
`__main__` runs the CLI.
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


def test_only_wiener_hopf_assembles_and_factors_the_system():
    # other modules reach the system through solve_uniform (the report
    # solves its own 6 x 6 bordered system in mp); the dense assembly and
    # solve are the test oracle
    found = []
    for path in SOURCES:
        if path.stem in ("wiener_hopf", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {a.name}" for a in node.names
                          if a.name in ("build_system", "solve_dense")]
    assert found == []


def test_import_leaves_scipy_unloaded():
    # a cold `import scipy.linalg` takes longer than importing the whole
    # package does; the O(n) solve is numpy only
    src = str(Path(optquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, optquad; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
