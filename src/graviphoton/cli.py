"""Config-file-driven command line front end.

``graviphoton run <config.json>`` executes one task described by a JSON
scenario file and emits a table; ``graviphoton validate <config.json>``
takes the same path through the same file, lists every violation it can
find and, when there is none, computes the table without writing it, so it
exits as ``run`` would.  All floating point output uses 17 significant
digits so that values survive a round trip through text.

Config layout (keys carry their units as suffixes)::

    {
      "task": "redshift" | "overlap" | "qber-sweep" | "qfi-sweep",
      "body": {"mass_kg": 5.9722e24},            # or {"r_s_m": ...}
      "emitter": {"type": "static", "radius_m": 6.371e6},
      "receiver": {"type": "orbit", "radius_m": 6.871e6},
      "photon": {"kind": "gaussian", "omega0_rad_s": ..., "sigma_rad_s": ...},
                # or {"kind": "grid", "omega_rad_s": [...], "re": [...], "im": [...]}
      "sweep": {"sigma_rad_s": [...]},           # qber-sweep only
      "estimation": {"squeezing_r": 0.3, "theta_rad": [...], "probe_count": 1},
      "output": {"format": "csv", "path": "table.csv"}
    }

This module is the only reader of the format: each block's keys and JSON
types are checked here, photon included (``phase_rad`` is optional and 0 by
default), before the library constructors apply their value rules.

Exit codes: 0 success, 2 malformed config, 3 domain violation, 4 numerical
failure.  Errors are written to stderr as a single JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import ConfigParseError, DomainError, GraviphotonError
from .metrology import (
    SensingChannel,
    check_probe_angle,
    check_probe_count,
    qfi_sweep,
)
from .protocols import (
    LinkScenario,
    check_sigma_grid,
    check_sweep_profile,
    check_sweep_widths,
    qber_bandwidth_sweep,
)
from .spacetime import (
    ObserverPath,
    SchwarzschildGeometry,
    check_redshift_pair,
    clock_rate_squared,
    redshift_between,
)
from .wavepacket import (
    GaussianProfile,
    SampledGridProfile,
    mixing_angle,
    overlap,
    redshift_transform,
)

TASKS = ("redshift", "overlap", "qber-sweep", "qfi-sweep")

_TASK_BLOCKS = {
    "redshift": ("body", "emitter", "receiver"),
    "overlap": ("body", "emitter", "receiver", "photon"),
    "qber-sweep": ("body", "emitter", "receiver", "photon", "sweep"),
    "qfi-sweep": ("estimation",),
}

_TOP_KEYS = ("task", "body", "emitter", "receiver", "photon", "sweep", "estimation", "output")

REDSHIFT_CSV_COLUMNS = ("chi", "chi_squared", "z")
OVERLAP_CSV_COLUMNS = (
    "chi",
    "chi_squared",
    "overlap_re",
    "overlap_im",
    "overlap_mag",
    "mixing_theta_rad",
    "mixing_phi_rad",
)
QBER_SWEEP_CSV_COLUMNS = ("sigma_rad_s", "chi_sq_minus_1", "overlap_mag", "visibility", "qber")
QFI_SWEEP_CSV_COLUMNS = ("theta", "qfi", "cr_bound")


# ---------------------------------------------------------------------------
# parsing


def _reject_constant(token):
    raise ConfigParseError(f"non-finite literal {token!r} is not allowed in configs")


def _parse_int(token):
    # float() of the decimal string rounds to inf exactly where float() of the
    # int would overflow, and it has no digit limit
    if math.isinf(float(token)):
        raise ConfigParseError(
            f"integer literal of {len(token.lstrip('-'))} digits is too large for a float"
        )
    return int(token)


def load_config(path: str) -> dict:
    """Read and JSON-decode a config file; any failure is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParseError("config root must be a JSON object")
    return cfg


# json.loads gives exactly int and float for numbers, and bool, a subclass of
# int, for true and false: an exact type test rejects booleans as it goes
_NUMBER_TYPES = frozenset((int, float))


def _number(block, path, key):
    if key not in block:
        raise ConfigParseError(f"{path} is missing key {key!r}")
    val = block[key]
    if type(val) not in _NUMBER_TYPES:
        raise ConfigParseError(f"{path}.{key} must be a number")
    return float(val)


def _number_list(block, path, key):
    if key not in block:
        raise ConfigParseError(f"{path} is missing key {key!r}")
    val = block[key]
    if not isinstance(val, list):
        raise ConfigParseError(f"{path}.{key} must be a list of numbers")
    if not _NUMBER_TYPES.issuperset(map(type, val)):
        i = next(i for i, x in enumerate(val) if type(x) not in _NUMBER_TYPES)
        raise ConfigParseError(f"{path}.{key}[{i}] must be a number")
    return list(map(float, val))


def _check_keys(block, path, allowed):
    for key in block:
        if key not in allowed:
            raise ConfigParseError(
                f"unknown key {key!r} in {path}; allowed keys: {', '.join(allowed)}"
            )


def check_structure(cfg: dict) -> str:
    """Top-level shape of a decoded config; returns the task name.

    Checks the top-level keys, the task name and that every block the task
    needs is present.  The keys and JSON types inside a block are checked by
    its builder in :func:`build_blocks`, which builds from the values it has
    just read.
    """
    _check_keys(cfg, "config", _TOP_KEYS)
    if "task" not in cfg:
        raise ConfigParseError("config is missing key 'task'")
    task = cfg["task"]
    if task not in TASKS:
        raise ConfigParseError(
            f"task must be one of {', '.join(TASKS)}; got {task!r}"
        )
    for block in _TASK_BLOCKS[task]:
        if block not in cfg:
            raise ConfigParseError(f"task {task!r} requires block {block!r}")
    return task


def _build_body(body: dict, path: str) -> SchwarzschildGeometry:
    _check_keys(body, path, ("mass_kg", "r_s_m"))
    if ("mass_kg" in body) == ("r_s_m" in body):
        raise ConfigParseError(f"{path} requires exactly one of 'mass_kg' or 'r_s_m'")
    if "mass_kg" in body:
        return SchwarzschildGeometry.from_mass(_number(body, path, "mass_kg"))
    return SchwarzschildGeometry(_number(body, path, "r_s_m"))


def _build_observer(obs: dict, path: str) -> ObserverPath:
    _check_keys(obs, path, ("type", "radius_m"))
    if obs.get("type") not in ("static", "orbit"):
        raise ConfigParseError(
            f"{path}.type must be 'static' or 'orbit', got {obs.get('type')!r}"
        )
    return ObserverPath(obs["type"], _number(obs, path, "radius_m"))


def _build_photon(photon: dict, path: str):
    kind = photon.get("kind")
    if kind == "gaussian":
        _check_keys(photon, path, ("kind", "omega0_rad_s", "sigma_rad_s", "phase_rad"))
    elif kind == "grid":
        _check_keys(photon, path, ("kind", "omega_rad_s", "re", "im", "phase_rad"))
    else:
        raise ConfigParseError(f"{path}.kind must be 'gaussian' or 'grid', got {kind!r}")
    phase = _number(photon, path, "phase_rad") if "phase_rad" in photon else 0.0
    if kind == "gaussian":
        omega0 = _number(photon, path, "omega0_rad_s")
        return GaussianProfile(omega0, _number(photon, path, "sigma_rad_s"), phase)
    omega, re, im = (_number_list(photon, path, key) for key in ("omega_rad_s", "re", "im"))
    if not len(omega) == len(re) == len(im):
        raise ConfigParseError(f"{path}.omega_rad_s, re and im must have equal lengths")
    return SampledGridProfile(omega, list(map(complex, re, im)), phase)


def _build_sweep(sweep: dict, path: str) -> list[float]:
    _check_keys(sweep, path, ("sigma_rad_s",))
    return check_sigma_grid(_number_list(sweep, path, "sigma_rad_s"))


def _build_estimation(est: dict, path: str):
    _check_keys(est, path, ("squeezing_r", "theta_rad", "probe_count"))
    squeezing_r = _number(est, path, "squeezing_r")
    thetas = _number_list(est, path, "theta_rad")
    probe_count = est.get("probe_count", 1)
    if isinstance(probe_count, bool) or not isinstance(probe_count, int):
        raise ConfigParseError(f"{path}.probe_count must be an integer")
    channel = SensingChannel(squeezing_r=squeezing_r)
    thetas = [check_probe_angle(t) for t in thetas]
    if not thetas:
        raise DomainError(f"{path}.theta_rad must not be empty")
    return channel, thetas, check_probe_count(probe_count)


def _build_output(out: dict, path: str) -> dict:
    _check_keys(out, path, ("format", "path"))
    if out.get("format", "csv") not in ("csv", "json"):
        raise ConfigParseError(
            f"{path}.format must be 'csv' or 'json', got {out['format']!r}"
        )
    if "path" in out and not isinstance(out["path"], str):
        raise ConfigParseError(f"{path}.path must be a string")
    return out


# each takes a block and its name; in the order blocks are checked
_BLOCK_BUILDERS = {
    "body": _build_body,
    "emitter": _build_observer,
    "receiver": _build_observer,
    "photon": _build_photon,
    "sweep": _build_sweep,
    "estimation": _build_estimation,
    "output": _build_output,
}


def _attempt(found: list, field: str, rule, *args):
    """Result of ``rule(*args)``, or ``None`` with its DomainError put on ``found``."""
    try:
        return rule(*args)
    except DomainError as exc:
        found.append((field, exc))
        return None


def build_blocks(cfg: dict, found: list) -> dict:
    """Check and build every block present in the config, reading each once.

    Blocks go in the order of ``_BLOCK_BUILDERS``.  Each builder checks its
    block's keys and JSON types, raising ConfigParseError at the first
    problem, before it hands the values it read to the constructors that
    own the value rules.  Unused blocks are built too: a config is either
    wholly valid or not, independently of which task happens to reference a
    block.  A block that breaks a value rule is left out, its DomainError
    put on ``found`` as ``(field, error)``.
    """
    built = {}
    for name, builder in _BLOCK_BUILDERS.items():
        if name not in cfg:
            continue
        if not isinstance(cfg[name], dict):
            raise ConfigParseError(f"block {name!r} must be a JSON object")
        built[name] = _attempt(found, name, builder, cfg[name], name)
    return {name: obj for name, obj in built.items() if obj is not None}


def collect_violations(cfg: dict, task: str) -> tuple[dict, list]:
    """Plan a run: build every block, then resolve what the task needs.

    Returns ``(plan, found)``: ``plan`` maps block names, and ``"redshift"``
    for link tasks, to what their builders returned; ``found`` lists every
    DomainError met, as ``(field, error)`` in the order a run meets them.
    """
    found = []
    plan = build_blocks(cfg, found)
    link = "receiver" in _TASK_BLOCKS[task]
    if link:
        # kinds come from the config: the observer builders checked them
        # even where a block then failed to build on its radius
        kinds = (cfg["emitter"]["type"], cfg["receiver"]["type"])
        _attempt(found, "emitter", check_redshift_pair, *kinds)
        for name in ("emitter", "receiver"):
            if "body" in plan and name in plan:
                _attempt(found, name, clock_rate_squared, plan["body"], plan[name])
    if task == "qber-sweep" and "photon" in plan:
        swept = _attempt(found, "photon", check_sweep_profile, plan["photon"])
        if swept is not None and "sweep" in plan:
            _attempt(found, "sweep", check_sweep_widths, swept, plan["sweep"])
    if link and not found:
        plan["redshift"] = redshift_between(plan["body"], plan["emitter"], plan["receiver"])
    return plan, found


# ---------------------------------------------------------------------------
# table computation


def execute_task(task: str, plan: dict):
    """Compute the table of a violation-free plan; returns ``(columns, rows, summary)``."""
    chi, profile = plan.get("redshift"), plan.get("photon")
    if task == "redshift":
        rows = [[chi.chi, chi.chi_squared, chi.z]]
        return REDSHIFT_CSV_COLUMNS, rows, f"chi={_fmt(chi.chi)}"
    if task == "overlap":
        # divided by the photon's own norm squared: a tabulated photon meets
        # unit norm only to NORM_TOL, a Gaussian's is exactly 1
        shifted = redshift_transform(profile, chi)
        theta_val = overlap(profile, shifted) / overlap(profile, profile).real
        mix_theta, mix_phi = mixing_angle(theta_val)
        magnitude = min(abs(theta_val), 1.0)
        rows = [
            [
                chi.chi,
                chi.chi_squared,
                theta_val.real,
                theta_val.imag,
                magnitude,
                mix_theta,
                mix_phi,
            ]
        ]
        return OVERLAP_CSV_COLUMNS, rows, f"overlap_mag={_fmt(magnitude)}"
    if task == "qber-sweep":
        scenario = LinkScenario(plan["body"], plan["emitter"], plan["receiver"], profile)
        rows = [
            [rep.sigma_rad_s, rep.chi.z, rep.overlap_magnitude, rep.visibility, rep.qber]
            for rep in qber_bandwidth_sweep(scenario, plan["sweep"])
        ]
        qbers = [row[4] for row in rows]
        summary = (
            f"rows={len(rows)} qber_min={_fmt(min(qbers))} qber_max={_fmt(max(qbers))}"
        )
        return QBER_SWEEP_CSV_COLUMNS, rows, summary
    # qfi-sweep, the one task left
    rows = [
        [rep.theta, rep.qfi, rep.cramer_rao_bound]
        for rep in qfi_sweep(*plan["estimation"])
    ]
    qfis = [row[1] for row in rows]
    summary = f"rows={len(rows)} qfi_max={_fmt(max(qfis))}"
    return QFI_SWEEP_CSV_COLUMNS, rows, summary


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    return "%.17g" % float(value)


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(task, columns, rows) -> str:
    """Fixed-shape JSON: ``{"task", "columns", "rows"}``.

    Floats are printed with 17 significant digits; non-finite values become
    ``null`` (JSON has no spelling for infinities).
    """
    def cell(v):
        if not math.isfinite(v):
            return "null"
        return _fmt(v)

    row_text = ",\n    ".join(
        "[" + ", ".join(cell(v) for v in row) + "]" for row in rows
    )
    return (
        "{\n"
        f'  "task": {json.dumps(task)},\n'
        f'  "columns": {json.dumps(list(columns))},\n'
        '  "rows": [\n'
        f"    {row_text}\n"
        "  ]\n"
        "}\n"
    )


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigParseError(f"cannot write output path {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _plan(config_path: str):
    """``(task, plan, found)`` of a config file: the path both commands take."""
    cfg = load_config(config_path)
    task = check_structure(cfg)
    plan, found = collect_violations(cfg, task)
    return task, plan, found


def _cmd_run(args) -> int:
    t_start = time.perf_counter()
    task, plan, found = _plan(args.config)
    if found:
        raise found[0][1]
    columns, rows, summary = execute_task(task, plan)
    out_cfg = plan.get("output", {})
    path = args.output if args.output is not None else out_cfg.get("path")
    fmt = args.format if args.format is not None else out_cfg.get("format", "csv")
    text = render_csv(columns, rows) if fmt == "csv" else render_json(task, columns, rows)
    _emit(text, path)
    runtime = time.perf_counter() - t_start
    summary_line = f"task={task} {summary} runtime_s={runtime:.3f}\n"
    # keep stdout machine-readable when the table itself goes there
    stream = sys.stderr if path is None else sys.stdout
    stream.write(summary_line)
    return 0


def _cmd_validate(args) -> int:
    task, plan, found = _plan(args.config)
    for field_path, exc in found:
        sys.stdout.write(f"{field_path}: {type(exc).__name__}: {exc}\n")
    if not found:
        # computed and dropped, so a numerical failure exits as in run
        execute_task(task, plan)
    sys.stderr.write(f"task={task} violations={len(found)}\n")
    return 0 if not found else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graviphoton",
        description="Redshifted-photon link analysis from JSON scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario and emit its table")
    run_p.add_argument("config", help="path to a JSON scenario file")
    run_p.add_argument("--output", default=None, help="override output.path")
    run_p.add_argument(
        "--format", default=None, choices=("csv", "json"), help="override output.format"
    )
    run_p.set_defaults(func=_cmd_run)
    val_p = sub.add_parser(
        "validate", help="check a scenario file and compute its table without writing it"
    )
    val_p.add_argument("config", help="path to a JSON scenario file")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraviphotonError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        if isinstance(exc, ConfigParseError):
            return 2
        if isinstance(exc, DomainError):
            return 3
        return 4


if __name__ == "__main__":
    sys.exit(main())
