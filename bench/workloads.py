"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a fixed list of operations that one *round* runs in
order.  The list is built once per run from the seed; every round repeats
it, so each run attempts whole rounds of the same operations and the share
of failed operations is the same in every run.  Operations whose inputs are
fixed rather than drawn from the seed carry the name of the known fault they
exercise (``F1`` or ``F2``); a failure anywhere else makes a run incorrect.

Each operation returns an :class:`Outcome`.  Its ``kind`` is ``"a"`` or
``"b"``, the two operation kinds each workload times separately (see the
README for what they are per workload).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import references as R

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Relative tolerance against the references: four significant digits.
REL_TOL = 1e-4
CHILD_TIMEOUT_S = 120.0

# F1: weak-field precision.  Links this short lose z and the overlap deficit
# to rounding near 1, so their rows run on fixed inputs.
F1_LINKS = ("hover-1m", "hover-1km")
SEEDED_LINKS = ("hover-500km", "leo", "geo")
# Grid rows, one per node count, spanning 1e2 to 1e4 nodes over +-8 sigma.
GRID_NODES = (100, 316, 1000, 3162, 10000)
GRID_HALF_WIDTH = 8.0
F1_GRID = (6, 0, 1000)  # sigma stratum, variant, node count
# F2: QFI by fidelity finite differences.  The fixed angles and the r=0.1
# rows miss the number-basis reference.  At r=0.3 the interior rows pass,
# but rounding noise puts some candidates within 20% of the tolerance, so a
# different BLAS could flip them: they run on fixed inputs too.  Only r=0.6,
# an order of magnitude inside the tolerance, draws its angles from the seed.
F2_SQUEEZINGS = (0.1, 0.3)
CLI_GRID_NODES = (768, 784, 800, 816, 832)


@dataclass
class Outcome:
    kind: str
    seconds: float
    attempted: int = 1
    failed: int = 0
    unexpected: int = 0
    notes: list = field(default_factory=list)
    maxrss_kib: int | None = None  # of the child process, if the operation ran one


def _rel_err(got, want):
    return abs(got - want) / abs(want)


class Checker:
    """Collects row failures of one operation against the references."""

    def __init__(self, fault):
        self.fault = fault
        self.failed_rows = set()
        self.notes = []

    def expect(self, row, ok, what):
        if not ok:
            self.failed_rows.add(row)
            self.notes.append(f"row {row}: {what}")

    def close(self, kind, seconds, attempted):
        failed = len(self.failed_rows)
        unexpected = 0 if self.fault else failed
        return Outcome(kind, seconds, attempted, failed, unexpected, self.notes)

    def rel(self, row, name, got, want):
        ok = math.isfinite(got) and _rel_err(got, want) <= REL_TOL
        self.expect(row, ok, f"{name} {got!r} vs reference {want!r}")


def load_references():
    with open(R.REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gaussian_samples(sigma, nodes):
    """Raw samples of a Gaussian amplitude at ``nodes`` grid frequencies.

    The amplitude is evaluated at the offsets the rounded node frequencies
    actually have, so the table is a faithful sampling at optical carriers.
    """
    import numpy as np

    x = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, nodes)
    omega = R.OMEGA0_RAD_S + sigma * x
    u = (omega - R.OMEGA0_RAD_S) / sigma
    return omega, np.exp(-0.5 * u * u)


def gaussian_norm(sigma):
    """Factor that gives :func:`gaussian_samples` unit L2 norm."""
    return (math.pi * sigma * sigma) ** -0.25


# ---------------------------------------------------------------------------
# link-budget


class LinkBudget:
    name = "link-budget"

    def __init__(self, gp, seed):
        rng = random.Random(seed)
        earth = gp.SchwarzschildGeometry.from_mass(R.EARTH_MASS_KG)
        emitter = gp.ObserverPath("static", R.EARTH_RADIUS_M)
        self.gp = gp
        self.scenarios = {}
        for name, (kind, radius) in R.LINKS.items():
            self.scenarios[name] = gp.LinkScenario(
                earth, emitter, gp.ObserverPath(kind, radius),
                gp.GaussianProfile(R.OMEGA0_RAD_S, R.sigma_candidates(0)[0]),
            )
        self.sweeps = []
        for name in R.LINKS:
            fixed = name in F1_LINKS
            variants = [0 if fixed else rng.randrange(R.SIGMA_VARIANTS)
                        for _ in range(R.SIGMA_STRATA)]
            sigmas = [R.sigma_candidates(i)[v] for i, v in enumerate(variants)]
            self.sweeps.append((name, variants, sigmas, "F1" if fixed else None))
        rows = [(name, *F1_GRID, "F1") for name in F1_LINKS]
        for nodes in GRID_NODES:
            rows.append((rng.choice(SEEDED_LINKS), rng.randrange(R.SIGMA_STRATA),
                         rng.randrange(R.SIGMA_VARIANTS), nodes, None))
        self.grid_rows = []
        for name, stratum, variant, nodes, fault in rows:
            sigma = R.sigma_candidates(stratum)[variant]
            omega, amp = gaussian_samples(sigma, nodes)
            self.grid_rows.append((name, stratum, variant, omega, amp, fault))

    def operations(self, refs, tracer=None):
        ops = [lambda s=s: self._sweep(refs, *s) for s in self.sweeps]
        ops += [lambda g=g: self._grid_row(refs, *g, tracer) for g in self.grid_rows]
        return ops

    def _sweep(self, refs, name, variants, sigmas, fault):
        gp, ref = self.gp, refs["links"][name]
        check = Checker(fault)
        t0 = time.perf_counter()
        try:
            reports = gp.qber_bandwidth_sweep(self.scenarios[name], sigmas)
        except gp.GraviphotonError as exc:
            dt = time.perf_counter() - t0
            for row in range(len(sigmas)):
                check.expect(row, False, f"raised {exc!r}")
            return check.close("a", dt, len(sigmas))
        dt = time.perf_counter() - t0
        for row, (rep, v) in enumerate(zip(reports, variants)):
            deficit = ref["deficit"][row][v]
            check.rel(row, "z", rep.chi.z, ref["z"])
            check.rel(row, "overlap deficit", 1.0 - rep.overlap_magnitude**2, deficit)
            check.rel(row, "qber", rep.qber, 0.5 * deficit)
            check.expect(row, rep.overlap_magnitude <= 1.0, "|Theta| > 1")
            check.expect(row, rep.qber == 0.5 * (1.0 - rep.visibility),
                         "qber != (1 - visibility)/2")
        return check.close("a", dt, len(sigmas))

    def _grid_row(self, refs, name, stratum, variant, omega, amp, fault, tracer):
        gp, ref = self.gp, refs["links"][name]
        check = Checker(fault)

        def row():
            profile = gp.SampledGridProfile.from_samples(omega, amp)
            chi = gp.link_redshift(self.scenarios[name])
            shifted = gp.redshift_transform(profile, chi)
            return chi, gp.overlap(profile, shifted)

        t0 = time.perf_counter()
        try:
            chi, theta = tracer.call("bench.grid_row", row) if tracer else row()
        except gp.GraviphotonError as exc:
            check.expect(0, False, f"raised {exc!r}")
            return check.close("b", time.perf_counter() - t0, 1)
        dt = time.perf_counter() - t0
        check.rel(0, "z", chi.z, ref["z"])
        check.rel(0, "overlap deficit", 1.0 - abs(theta) ** 2, ref["deficit"][stratum][variant])
        check.expect(0, abs(theta) <= 1.0 + 1e-12, f"|Theta| = {abs(theta)!r} > 1")
        return check.close("b", dt, 1)


# ---------------------------------------------------------------------------
# qfi-probe


class QfiProbe:
    name = "qfi-probe"

    def __init__(self, gp, seed):
        rng = random.Random(seed)
        self.gp = gp
        self.plan = []  # (r, [(theta, reference key, fault)])
        for r in R.SQUEEZINGS:
            rows = [(t, ("fixed", i), "F2") for i, t in enumerate(R.FIXED_ANGLES)]
            for stratum in range(R.ANGLE_STRATA):
                if r in F2_SQUEEZINGS:
                    variant, fault = R.ANGLE_VARIANTS // 2, "F2"
                else:
                    variant, fault = rng.randrange(R.ANGLE_VARIANTS), None
                theta = R.angle_candidates(stratum)[variant]
                rows.append((theta, (stratum, variant), fault))
            self.plan.append((r, rows))

    def operations(self, refs, tracer=None):
        ops = []
        for r, rows in self.plan:
            box = {}
            ops.append(lambda r=r, box=box: self._build(r, box))
            ops += [lambda r=r, box=box, row=row: self._row(refs, r, box, *row, tracer)
                    for row in rows]
        return ops

    def _build(self, r, box):
        gp = self.gp
        check = Checker(None)
        t0 = time.perf_counter()
        initial, box["apply"] = gp.build_sensing_channel(gp.SensingChannel(squeezing_r=r))
        dt = time.perf_counter() - t0
        # a twin beam of squeezing r holds 2 sinh(r)^2 photons
        check.rel(0, "mean photon number", gp.mean_photon_number(initial),
                  2.0 * math.sinh(r) ** 2)
        return check.close("b", dt, 1)

    def _row(self, refs, r, box, theta, key, fault, tracer):
        gp, ref = self.gp, refs["qfi"][repr(r)]
        want = ref["fixed_qfi"][key[1]] if key[0] == "fixed" else ref["qfi"][key[0]][key[1]]
        check = Checker(fault)

        def row():
            return gp.qfi_finite_difference(box["apply"], theta)

        t0 = time.perf_counter()
        try:
            rep = tracer.call("bench.qfi_row", row) if tracer else row()
        except gp.GraviphotonError as exc:
            check.expect(0, False, f"r={r} theta={theta!r} raised {exc!r}")
            return check.close("a", time.perf_counter() - t0, 1)
        dt = time.perf_counter() - t0
        check.rel(0, f"r={r} theta={theta!r} qfi", rep.qfi, want)
        check.rel(0, "cramer-rao bound", rep.cramer_rao_bound, 1.0 / rep.qfi)
        return check.close("a", dt, 1)


# ---------------------------------------------------------------------------
# cli-cold


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, tag):
    """Run one child process to completion; returns (wall s, code, stdout, stderr, maxrss KiB)."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class CliCold:
    name = "cli-cold"
    GOLDEN = ("redshift", "overlap", "qber-sweep", "qfi-sweep")

    def __init__(self, gp, seed):
        rng = random.Random(seed)
        self.configs = [(task, os.path.join(R.CONFIG_DIR, f"{task}.json")) for task in self.GOLDEN]
        # the tabulated photon: a sampled Gaussian sent over a seeded link
        link = rng.choice(SEEDED_LINKS)
        stratum, variant = rng.randrange(R.SIGMA_STRATA), rng.randrange(R.SIGMA_VARIANTS)
        nodes = rng.choice(CLI_GRID_NODES)
        sigma = R.sigma_candidates(stratum)[variant]
        omega, amp = gaussian_samples(sigma, nodes)
        amp = amp * gaussian_norm(sigma)
        kind, radius = R.LINKS[link]
        cfg = {
            "task": "overlap",
            "body": {"mass_kg": R.EARTH_MASS_KG},
            "emitter": {"type": "static", "radius_m": R.EARTH_RADIUS_M},
            "receiver": {"type": kind, "radius_m": radius},
            "photon": {"kind": "grid", "omega_rad_s": omega.tolist(),
                       "re": amp.tolist(), "im": [0.0] * nodes},
            "output": {"format": "csv"},
        }
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"grid-overlap-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.grid = (link, stratum, variant)
        self.configs.append(("grid-overlap", path))
        self.plan = [(task, path, command) for task, path in self.configs
                     for command in ("run", "validate")]
        rng.shuffle(self.plan)
        self.tracer_spans = []  # filled by traced children

    def operations(self, refs, tracer=None):
        return [lambda p=p: self._process(refs, *p, tracer) for p in self.plan]

    def _process(self, refs, task, path, command, tracer):
        fault = "F2" if (task, command) == ("qfi-sweep", "run") else None
        check = Checker(fault)
        kind = "a" if command == "run" else "b"
        tag = f"{task}-{command}"
        if tracer is None:
            argv = [sys.executable, "-m", "graviphoton.cli", command, path]
        else:
            spans_path = os.path.join(WORK, f"{tag}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, command, path]
        wall, code, stdout, stderr, maxrss = run_child(argv, tag)
        if tracer is not None and code in (0, 3):
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer_spans.append({"command": command, "wall": wall, **json.load(fh)})
        if command == "validate":
            check.expect(0, code == 0 and "violations=0" in stderr,
                         f"validate {task}: exit {code}, {stderr.strip()!r}")
        elif code != 0:
            check.expect(0, False, f"run {task}: exit {code}, {stderr.strip()!r}")
        else:
            try:
                self._check_table(refs, task, stdout, check)
            except (ValueError, KeyError, IndexError) as exc:
                check.expect(0, False, f"run {task}: unreadable table ({exc!r})")
        outcome = check.close(kind, wall, 1)
        outcome.maxrss_kib = maxrss
        return outcome

    def _check_table(self, refs, task, stdout, check):
        if task == "qfi-sweep":
            rows = json.loads(stdout)["rows"]
            want = refs["golden"]["qfi-sweep"]["qfi"]
            check.expect(0, len(rows) == len(want), "row count")
            for i, (row, q) in enumerate(zip(rows, want)):
                check.rel(i, f"theta={row[0]!r} qfi", row[1], q)
            return
        rows = _csv_rows(stdout)
        if task == "grid-overlap":
            link, stratum, variant = self.grid
            z, deficits = refs["links"][link]["z"], [refs["links"][link]["deficit"][stratum][variant]]
        else:
            ref = refs["golden"][task]
            z, deficits = ref["z"], ref.get("deficit", [])
        if task == "redshift":
            check.rel(0, "z", rows[0]["z"], z)
            return
        check.expect(0, len(rows) == len(deficits), "row count")
        for i, (row, deficit) in enumerate(zip(rows, deficits)):
            mag = row["overlap_mag"]
            check.expect(i, mag <= 1.0, "|Theta| > 1")
            check.rel(i, "overlap deficit", 1.0 - mag * mag, deficit)
            if task == "qber-sweep":
                check.rel(i, "z", row["chi_sq_minus_1"], z)
                check.expect(i, row["qber"] == 0.5 * (1.0 - row["visibility"]),
                             "qber != (1 - visibility)/2")
            else:
                check.rel(i, "z", row["chi_squared"] - 1.0, z)
                check.expect(i, abs(math.cos(row["mixing_theta_rad"]) - mag) <= 1e-12,
                             "cos(mixing angle) != |Theta|")


WORKLOADS = {w.name: w for w in (CliCold, LinkBudget, QfiProbe)}
