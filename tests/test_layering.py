"""Modules of the package use each other only through public names, and
importing the package loads no adaptive integrator."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import graviphoton

PACKAGE = Path(graviphoton.__file__).resolve().parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "graviphoton"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def test_import_loads_no_adaptive_integrator():
    # Gaussian overlaps are closed form and tabulated ones use the package's
    # own panel rule, so importing the package must not pull in scipy.integrate
    probe = (
        "import sys, graviphoton; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"
    )
    pythonpath = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
