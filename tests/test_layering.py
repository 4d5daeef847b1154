"""Modules of the package use each other only through public names, no
module imports scipy or a process pool, and importing the package or
running the CLI on Gaussian or tabulated-photon configs loads neither.
numpy loads on first use: a Gaussian run never loads it.  Every constant
the README names exists in the package, and the set of modules the package
imports is pinned."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import graviphoton

PACKAGE = Path(graviphoton.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_readme_constants_are_package_attributes():
    # a constant the README names, such as a tolerance or a limit, must exist
    # in some module, so a renamed or retired one cannot linger in the docs
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # two or more capitals before the first underscore: `J_0` is maths, not a name
    names = set(re.findall(r"`([A-Z][A-Z0-9]+(?:_[A-Z0-9]+)+)\b", text))
    stems = [p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    modules = [graviphoton] + [importlib.import_module(f"graviphoton.{stem}") for stem in stems]
    assert names >= {"NORM_TOL", "MIN_CARRIER_TO_WIDTH"}
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []


def test_only_the_cli_defines_table_columns():
    # the CLI owns its table format: no library module names CSV columns
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id.endswith("_CSV_COLUMNS"):
                if isinstance(node.ctx, ast.Store):
                    found.add(path.stem)
    assert found == {"cli"}


def test_only_the_cli_names_config_parse_errors():
    # the CLI owns its config format: errors.py defines ConfigParseError and
    # the package's __init__ re-exports it, but no library module reads a
    # config, so none raises, catches or imports it
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            named = (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                node.name if isinstance(node, (ast.ClassDef, ast.alias)) else None,
            )
            if "ConfigParseError" in named:
                found.add(path.stem)
    assert found == {"cli", "errors"}


def _error_classes_left_unraised(sources):
    """Classes of ``sources["errors"]`` that no other module raises or
    subclasses; a base class counts as raised when a subclass is."""
    tree = ast.parse(sources["errors"])
    bases = {
        n.name: {b.id for b in n.bases if isinstance(b, ast.Name)}
        for n in tree.body
        if isinstance(n, ast.ClassDef)
    }
    live = set()
    for stem, source in sources.items():
        if stem == "errors":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                live.update(getattr(b, "id", getattr(b, "attr", None)) for b in node.bases)
    todo = list(live & bases.keys())
    while todo:
        for base in bases[todo.pop()] & bases.keys() - live:
            live.add(base)
            todo.append(base)
    return sorted(bases.keys() - live)


def test_every_error_class_is_raised_by_another_module():
    # an error type outlives its last raise unless a test notices
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _error_classes_left_unraised(sources) == []
    retired = sources["errors"] + "\n\nclass RetiredError(NumericalError):\n    pass\n"
    assert _error_classes_left_unraised({**sources, "errors": retired}) == ["RetiredError"]


_VALIDATED = {"SymplecticMatrix", "GaussianState"}


def _unvalidated_builds(source, name):
    """Lines that reach ``__new__`` of a validated class, so skip its ``__init__``."""
    tree = ast.parse(source, filename=name)
    scopes = [(None, tree)] + [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    found = set()
    for owner, scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                named = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
                named = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
            else:
                continue
            if owner in _VALIDATED or named & _VALIDATED:
                found.add(f"{name}:{node.lineno}")
    return sorted(found)


def test_no_module_builds_a_validated_object_past_its_init():
    # every SymplecticMatrix and GaussianState goes through its validating
    # __init__, so fewer objects per row means fewer objects, not fewer checks
    probes = (
        "GaussianState.__new__(GaussianState)",
        "object.__new__(SymplecticMatrix)",
        "class SymplecticMatrix:\n    def f(cls):\n        return cls.__new__(cls)",
    )
    assert all(_unvalidated_builds(p, "probe") for p in probes)
    found = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _unvalidated_builds(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


# concurrent holds only concurrent.futures
_BANNED = ("scipy", "multiprocessing", "concurrent")


def _banned_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _BANNED:
                    yield path.stem, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] in _BANNED:
                for alias in node.names:
                    yield path.stem, f"{node.module}.{alias.name}"


def test_no_module_imports_scipy():
    # nor a process pool: every table is computed in the calling process
    found = {imp for path in sorted(PACKAGE.glob("*.py")) for imp in _banned_imports(path)}
    assert found == set()


# Every top-level module the package imports, anywhere in its source.  The
# import set moves cold start and the benchmark's calibration kernel: a new
# entry is a deliberate edit here, with its reason in CHANGES.md.
IMPORT_SURFACE = {
    "__future__", "argparse", "cmath", "dataclasses", "functools", "json",
    "logging", "math", "numpy", "operator", "sys", "time",
}


def test_import_surface_is_pinned():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found == IMPORT_SURFACE


def _child(probe, *args):
    pythonpath = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_adaptive_integrator():
    # Gaussian overlaps are closed form and tabulated ones use the package's
    # own spline, so importing the package must not pull in scipy.integrate
    probe = (
        "import sys, graviphoton; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"
    )
    assert _child(probe) == "[]"


# imports the package, then runs `run` and `validate` on each config given;
# prints the exit codes and the loaded modules whose top-level name is in the
# comma-separated list given, plus any process pool, once after the import
# and once after the runs
CLI_PROBE = (
    "import json, sys\n"
    "out, watched = sys.argv[1], sys.argv[2].split(',')\n"
    "def loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'concurrent.futures.process'\n"
    "                  or m.split('.')[0] in watched)\n"
    "import graviphoton, graviphoton.cli as cli\n"
    "at_import = loaded()\n"
    "codes = []\n"
    "for cfg in sys.argv[3:]:\n"
    "    codes.append(cli.main(['run', cfg, '--output', out]))\n"
    "    codes.append(cli.main(['validate', cfg]))\n"
    "print(json.dumps([codes, at_import, loaded()]))\n"
)
WATCHED = "scipy,multiprocessing,numpy,logging"


def test_gaussian_cli_runs_load_no_scipy_or_process_pool(tmp_path):
    # Gaussian tables are closed forms in math, and every table is computed
    # in the CLI's own process: neither importing the package nor a run or
    # validate of the Gaussian goldens may load numpy, logging or a pool
    tasks = ("redshift", "overlap", "qber-sweep", "qfi-sweep")
    configs = [str(GOLDEN / f"{task}.json") for task in tasks]
    codes, at_import, after_runs = json.loads(
        _child(CLI_PROBE, str(tmp_path / "table.out"), WATCHED, *configs)
    )
    assert codes == [0] * 2 * len(tasks)
    assert at_import == []
    assert after_runs == []


def test_grid_photon_cli_runs_load_no_scipy(tmp_path):
    # the spline of a tabulated photon is the package's own numpy code
    cfg = json.loads((GOLDEN / "overlap.json").read_text(encoding="utf-8"))
    w0, sigma = cfg["photon"]["omega0_rad_s"], cfg["photon"]["sigma_rad_s"]
    x = np.linspace(-8.0, 8.0, 401)
    amp = (np.pi * sigma**2) ** -0.25 * np.exp(-0.5 * x * x)
    cfg["photon"] = {
        "kind": "grid",
        "omega_rad_s": (w0 + sigma * x).tolist(),
        "re": amp.tolist(),
        "im": [0.0] * x.size,
    }
    cfg.pop("output", None)
    path = tmp_path / "grid-overlap.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    codes, at_import, after_runs = json.loads(
        _child(CLI_PROBE, str(tmp_path / "table.out"), WATCHED, str(path))
    )
    assert codes == [0, 0]
    assert at_import == []
    # numpy is loaded, and nothing else watched
    assert {m.split(".")[0] for m in after_runs} == {"numpy"}


# binds numpy, then calls one function of each module that uses it and
# prints, before and after, whether each module's global np is numpy itself
REBIND_PROBE = (
    "import json, numpy\n"
    "from graviphoton import metrology, spline, symplectic, wavepacket\n"
    "modules = (metrology, spline, symplectic, wavepacket)\n"
    "before = [m.np is numpy for m in modules]\n"
    "metrology.gaussian_fidelity(symplectic.state_vacuum(1), symplectic.state_vacuum(1))\n"
    "spline.not_a_knot([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])\n"
    "symplectic.symplectic_form(1)\n"
    "wavepacket.GaussianProfile(10.0, 1.0)(10.0)\n"
    "print(json.dumps([before, [m.np is numpy for m in modules]]))\n"
)


def test_first_use_rebinds_each_module_np_to_numpy():
    # hot loops look np up as a global; after the first call that global
    # must be numpy itself, not the stand-in that forwards to it
    before, after = json.loads(_child(REBIND_PROBE))
    assert before == [False] * 4
    assert after == [True] * 4
