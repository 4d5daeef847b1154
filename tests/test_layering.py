"""Modules of the package use each other only through public names, scipy is
imported only for the spline of tabulated photons, and importing the package
or running the CLI on Gaussian configs loads neither scipy nor a process
pool."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def _scipy_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    yield path.stem, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scipy":
                for alias in node.names:
                    yield path.stem, f"{node.module}.{alias.name}"


def test_only_scipy_import_is_the_grid_spline():
    found = {imp for path in sorted(PACKAGE.glob("*.py")) for imp in _scipy_imports(path)}
    assert found == {("wavepacket", "scipy.interpolate.CubicSpline")}


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
    # own panel rule, so importing the package must not pull in scipy.integrate
    probe = (
        "import sys, graviphoton; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"
    )
    assert _child(probe) == "[]"


def test_gaussian_cli_runs_load_no_scipy_or_process_pool(tmp_path):
    # scipy is only needed by the spline of tabulated photons, and the process
    # pool only by --jobs, so neither importing the CLI nor a serial run or
    # validate of the Gaussian goldens may load them
    probe = (
        "import json, sys, graviphoton, graviphoton.cli as cli\n"
        "out = sys.argv[1]\n"
        "codes = []\n"
        "for cfg in sys.argv[2:]:\n"
        "    codes.append(cli.main(['run', cfg, '--output', out]))\n"
        "    codes.append(cli.main(['validate', cfg]))\n"
        "loaded = sorted(m for m in sys.modules if m == 'concurrent.futures.process'\n"
        "                or m.split('.')[0] in ('scipy', 'multiprocessing'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    tasks = ("redshift", "overlap", "qber-sweep", "qfi-sweep")
    configs = [str(GOLDEN / f"{task}.json") for task in tasks]
    codes, loaded = json.loads(_child(probe, str(tmp_path / "table.out"), *configs))
    assert codes == [0] * 2 * len(tasks)
    assert loaded == []
