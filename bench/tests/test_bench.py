"""Tests of the benchmark itself: short runs, reference checks, manifest."""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def gp():
    return run.import_program()


@pytest.fixture(scope="module")
def refs():
    return W.load_references()


@pytest.mark.parametrize("workload", ["cli-cold", "link-budget", "qfi-probe"])
def test_short_run_completes(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] < result["attempted"]
    names = {m["name"] for m in manifest()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = bench("qfi-probe", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in manifest()["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("qfi-probe", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def perturbed(refs, path):
    """Copy of ``refs`` with the entry at ``path`` scaled by 1 + 1e-3."""
    out = copy.deepcopy(refs)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.0 + 1e-3
    return out


def only_failure(outcome):
    assert outcome.failed == 1 and outcome.unexpected == 1, outcome.notes


def test_perturbed_qfi_reference_fails_its_row(gp, refs):
    probe = W.QfiProbe(gp, 3)
    k = next(i for i, (_, rows) in enumerate(probe.plan) if rows[-1][2] is None)
    r, rows = probe.plan[k]  # seeded interior angles follow the fixed ones
    theta, (stratum, variant), fault = rows[len(W.R.FIXED_ANGLES)]
    assert fault is None
    build = k * (len(rows) + 1)
    row = build + 1 + len(W.R.FIXED_ANGLES)
    ops = probe.operations(refs)
    ops[build]()
    assert ops[row]().failed == 0
    ops = probe.operations(perturbed(refs, ["qfi", repr(r), "qfi", stratum, variant]))
    ops[build]()
    only_failure(ops[row]())


def test_perturbed_link_reference_fails_its_row(gp, refs):
    budget = W.LinkBudget(gp, 3)
    index = next(i for i, s in enumerate(budget.sweeps) if s[3] is None)
    name, variants, _, _ = budget.sweeps[index]
    assert budget.operations(refs)[index]().failed == 0
    bad = perturbed(refs, ["links", name, "deficit", 4, variants[4]])
    only_failure(budget.operations(bad)[index]())


def test_perturbed_grid_reference_fails_its_row(gp, refs):
    budget = W.LinkBudget(gp, 3)
    index = next(i for i, g in enumerate(budget.grid_rows) if g[-1] is None and len(g[3]) < 500)
    name, stratum, variant = budget.grid_rows[index][:3]
    op_index = len(budget.sweeps) + index
    assert budget.operations(refs)[op_index]().failed == 0
    bad = perturbed(refs, ["links", name, "deficit", stratum, variant])
    only_failure(budget.operations(bad)[op_index]())


def test_perturbed_golden_reference_fails_the_cli_run(gp, refs):
    cli = W.CliCold(gp, 3)
    index = cli.plan.index(("overlap", cli.configs[1][1], "run"))
    assert cli.operations(refs)[index]().failed == 0
    only_failure(cli.operations(perturbed(refs, ["golden", "overlap", "deficit", 0]))[index]())


def test_manifest_names_and_bounds():
    m = manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in m["workloads"]) == sorted(W.WORKLOADS)
    assert any(x["name"] == "setup_s" and x["unit"] == "s" for x in m["end_to_end"])
    for metric in m["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in m["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert set(run.LAYER_METRICS) < {x["name"] for x in m["per_layer"]}
