"""Modules of the package use each other only through public names, no
module imports scipy or a process pool, and importing the package or
running the CLI on Gaussian or tabulated-photon configs loads neither."""

import ast
import json
import os
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


# runs `run` and `validate` on each config given, then prints the exit codes
# and every scipy, multiprocessing or process-pool module loaded
CLI_PROBE = (
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


def test_gaussian_cli_runs_load_no_scipy_or_process_pool(tmp_path):
    # the CLI computes every table in its own process, so neither importing
    # it nor a run or validate of the Gaussian goldens may load a process pool
    tasks = ("redshift", "overlap", "qber-sweep", "qfi-sweep")
    configs = [str(GOLDEN / f"{task}.json") for task in tasks]
    codes, loaded = json.loads(_child(CLI_PROBE, str(tmp_path / "table.out"), *configs))
    assert codes == [0] * 2 * len(tasks)
    assert loaded == []


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
    codes, loaded = json.loads(_child(CLI_PROBE, str(tmp_path / "table.out"), str(path)))
    assert codes == [0, 0]
    assert loaded == []
