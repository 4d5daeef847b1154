"""graviphoton benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``cli-cold``, ``link-budget`` or ``qfi-probe``) in a
closed loop, one operation at a time from one process, checks every output
against the stored references, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` a separate traced run reports the per-layer ones.

The program measured is the graviphoton under ``src/`` next to this
directory; the benchmark refuses to run against any other copy.  BLAS is
limited to one thread, at most one child process is alive at any time, and
the benchmark and its children are pinned to one CPU.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402

MAX_WORKERS = 1
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3

# Machine-speed calibration.  On a host shared with other tenants their load
# can change the speed of a core by a quarter within seconds (seen on a
# 2-core shared Xeon host).  A fixed kernel of the benchmark's own code runs
# before and after every timed block, and each block's times are scaled by
# CAL_NOMINAL_S / (median kernel time around it): times are reported at a
# fixed nominal speed of the kernel, and no change to graviphoton can move
# the kernel.
CAL_NOMINAL_S = 1.5e-3
CAL_REPEATS = 8
_CAL_MATRIX = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)
_CAL_ARRAY = np.linspace(-8.0, 8.0, 20000)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def _calibration_kernel():
    # small-matrix LAPACK calls, interpreter work and whole-array passes, the
    # three kinds of work the workloads spend their time in
    acc = 0.0
    for i in range(100):
        acc += float(np.linalg.det(_CAL_MATRIX @ _CAL_MATRIX.T)) + math.sqrt(i + 1.0)
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
    for k in range(4):
        acc += float(np.sum(np.exp(-0.5 * (_CAL_ARRAY + k) ** 2)))
    return acc


def _kernel_times(n=CAL_REPEATS):
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _calibration_kernel()
        out.append(time.perf_counter() - t0)
    return out


def calibrated(fn):
    """Run ``fn`` between two calibrations; returns (result, kernel times)."""
    cal = _kernel_times()
    result = fn()
    cal += _kernel_times()
    return result, cal


def speed_factor(kernel_times):
    return CAL_NOMINAL_S / statistics.median(kernel_times)


def import_program():
    """Import graviphoton from this checkout's ``src/`` and nowhere else."""
    package_dir = os.path.join(W.SRC, "graviphoton")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise BenchError(f"no graviphoton sources under {W.SRC}")
    sys.path.insert(0, W.SRC)
    import graviphoton

    found = os.path.dirname(os.path.realpath(graviphoton.__file__))
    if found != os.path.realpath(package_dir):
        raise BenchError(f"graviphoton imported from {found}, not from {package_dir}")
    return graviphoton


def pin_cpu():
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# set-up time


def probe(workload, seed):
    """Child side of a set-up sample: import, build the inputs, report ready."""
    gp = import_program()
    W.WORKLOADS[workload](gp, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def setup_sample(workload, seed):
    """One set-up sample: (seconds from a fresh process to inputs ready, kernel times)."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", workload, "--seed", str(seed)]

    def one():
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                env=W.child_env(), cwd=W.ROOT)
        watchdog = threading.Timer(W.CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait()
        finally:
            watchdog.cancel()
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
        return elapsed

    return calibrated(one)


# ---------------------------------------------------------------------------
# rounds


def run_round(ops, per_op, between=None):
    """One round; returns ([kernel times], [[Outcome] per block]).

    A block is one operation when ``per_op`` is set, else the whole round;
    the calibration kernel runs around every block.  ``between`` runs after
    every block, outside the timed blocks.
    """
    cal, blocks = [], []
    for block in ([op] for op in ops) if per_op else [ops]:
        outcomes, times = calibrated(lambda b=block: [op() for op in b])
        cal += times
        blocks.append(outcomes)
        if between:
            between()
    return cal, blocks


def run_rounds(ops, per_op, seconds, probe):
    """Whole rounds for ``seconds`` of round time, with set-up samples spread
    evenly over the run so that they see the same machine as the rounds.
    The samples' own time does not count towards ``seconds``."""
    rounds, setup = [], []
    t0 = time.perf_counter()
    probing = 0.0

    def round_time():
        return time.perf_counter() - t0 - probing

    def between():
        nonlocal probing
        if len(setup) < SETUP_REPEATS and round_time() >= len(setup) * seconds / SETUP_REPEATS:
            started = time.perf_counter()
            setup.append(probe())
            probing += time.perf_counter() - started

    while not rounds or round_time() < seconds:
        rounds.append(run_round(ops, per_op, between))
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())
    return rounds, setup


def kind_time(blocks, kind, raw=False):
    """Median over blocks of the mean time per attempted row of one kind."""
    values = []
    for factor, outs in blocks:
        mine = [o for o in outs if o.kind == kind]
        if mine:
            scale = 1.0 if raw else factor
            values.append(scale * sum(o.seconds for o in mine) / sum(o.attempted for o in mine))
    return statistics.median(values)


def tally(rounds):
    outs = [o for _, blocks in rounds for block in blocks for o in block]
    return {
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "unexpected": sum(o.unexpected for o in outs),
        "notes": sorted({n for o in outs for n in o.notes}),
        "maxrss_kib": max((o.maxrss_kib for o in outs if o.maxrss_kib), default=None),
    }


def report(correct, counts, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def info(text):
    print(f"# {text}")


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(gp, name, seed, seconds):
    workload = W.WORKLOADS[name](gp, seed)
    refs = W.load_references()
    ops = workload.operations(refs)
    per_op = name == "cli-cold"
    # warm-up, not counted: fills the file cache, or runs lazy set-up in-process
    if per_op:
        ops[0]()
    else:
        run_round(ops, per_op)
    rounds, setup = run_rounds(ops, per_op, seconds, lambda: setup_sample(name, seed))
    # Work in this process is scaled by the kernel times of its own round.
    # Child processes (CLI runs and set-up samples) are scaled by the median
    # over the whole run: the kernel follows the speed of this process from
    # moment to moment, but a child's only on average.
    run_factor = speed_factor([t for cal, _ in rounds for t in cal]
                              + [t for _, cal in setup for t in cal])
    blocks = [(run_factor if per_op else speed_factor(cal), block)
              for cal, round_blocks in rounds for block in round_blocks]
    counts = tally(rounds)
    if counts["maxrss_kib"] is not None:
        rss_kib = counts["maxrss_kib"]
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": run_factor * statistics.median(t for t, _ in setup),
        "peak_rss_mib": rss_kib / 1024.0,
        "op_a_ms": 1e3 * kind_time(blocks, "a"),
        "op_b_ms": 1e3 * kind_time(blocks, "b"),
    }
    info(f"rounds={len(rounds)} blocks={len(blocks)} run_factor={run_factor:.6g}")
    info(f"raw op_a_ms={1e3 * kind_time(blocks, 'a', raw=True):.6g} "
         f"op_b_ms={1e3 * kind_time(blocks, 'b', raw=True):.6g} "
         f"setup_s={statistics.median(t for t, _ in setup):.6g}")
    return counts, metrics


# ---------------------------------------------------------------------------
# traced run


# per-layer metric -> (span name, statistic); the workload that covers the
# layer when the one being traced does not call it
LAYER_METRICS = {
    "cli.load_config_s": ("cli.load_config", "seconds", "cli-cold"),
    "cli.check_structure_s": ("cli.check_structure", "seconds", "cli-cold"),
    "cli.build_blocks_s": ("cli.build_blocks", "seconds", "cli-cold"),
    "cli.collect_violations_s": ("cli.collect_violations", "seconds", "cli-cold"),
    "cli.execute_task_s": ("cli.execute_task", "seconds", "cli-cold"),
    "cli.render_s": ("cli.render", "seconds", "cli-cold"),
    "spacetime.redshift_s": ("spacetime.redshift", "seconds", "link-budget"),
    "wavepacket.overlap_gaussian_s": ("wavepacket.overlap_gaussian", "seconds", "link-budget"),
    "wavepacket.overlap_gaussian_evals": ("wavepacket.overlap_gaussian", "points", "link-budget"),
    "wavepacket.redshift_transform_gaussian_s":
        ("wavepacket.redshift_transform_gaussian", "seconds", "link-budget"),
    "wavepacket.from_samples_s": ("wavepacket.from_samples", "seconds", "link-budget"),
    "wavepacket.redshift_transform_grid_s":
        ("wavepacket.redshift_transform_grid", "seconds", "link-budget"),
    "wavepacket.overlap_grid_s": ("wavepacket.overlap_grid", "seconds", "link-budget"),
    "wavepacket.grid_row_evals": ("bench.grid_row", "points", "link-budget"),
    "protocols.sweep_self_s": ("protocols.sweep", "self_seconds", "link-budget"),
    "symplectic.gate_beamsplitter_s": ("symplectic.gate_beamsplitter", "seconds", "qfi-probe"),
    "symplectic.embed_symplectic_s": ("symplectic.embed_symplectic", "seconds", "qfi-probe"),
    "symplectic.apply_symplectic_s": ("symplectic.apply_symplectic", "seconds", "qfi-probe"),
    "symplectic.partial_trace_s": ("symplectic.partial_trace", "seconds", "qfi-probe"),
    "symplectic.validated_objects_per_row": ("bench.qfi_row", "validated", "qfi-probe"),
    "metrology.build_sensing_channel_s":
        ("metrology.build_sensing_channel", "seconds", "qfi-probe"),
    "metrology.channel_apply_s": ("metrology.channel_apply", "seconds", "qfi-probe"),
    "metrology.gaussian_fidelity_s": ("metrology.gaussian_fidelity", "seconds", "qfi-probe"),
    "metrology.qfi_finite_difference_s":
        ("metrology.qfi_finite_difference", "seconds", "qfi-probe"),
    "metrology.channel_applies_per_row": ("bench.qfi_row", "applies", "qfi-probe"),
}


def import_profile():
    """Median ``import graviphoton`` and scipy self time under ``-X importtime``."""
    pattern = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")
    total, scipy = [], []
    for i in range(IMPORTTIME_REPEATS):
        argv = [sys.executable, "-X", "importtime", "-c", "import graviphoton"]
        _, code, _, stderr, _ = W.run_child(argv, f"importtime-{i}")
        if code != 0:
            raise BenchError(f"import graviphoton failed: {stderr[-500:]}")
        rows = [m.groups() for m in map(pattern.match, stderr.splitlines()) if m]
        total.append(next(int(c) for _, c, _, n in rows if n == "graviphoton") * 1e-6)
        scipy.append(sum(int(s) for s, _, _, n in rows if n.split(".")[0] == "scipy") * 1e-6)
    return statistics.median(total), statistics.median(scipy)


def _round_seconds(rnd):
    cal, blocks = rnd
    return speed_factor(cal) * sum(o.seconds for block in blocks for o in block)


def traced(gp, name, seed, seconds):
    refs = W.load_references()
    per_op = name == "cli-cold"
    workload = W.WORKLOADS[name](gp, seed)
    tracer = spans.Tracer()
    plain_ops, traced_ops = workload.operations(refs), workload.operations(refs, tracer)
    # untraced and traced rounds alternate, so both see the same machine
    plain, with_trace = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        plain.append(run_round(plain_ops, per_op))
        tracer.install()
        try:
            with_trace.append(run_round(traced_ops, per_op))
        finally:
            tracer.uninstall()
    overhead = 100.0 * (
        statistics.median(map(_round_seconds, with_trace))
        / statistics.median(map(_round_seconds, plain)) - 1.0
    )
    own = tracer.records()
    children = getattr(workload, "tracer_spans", [])
    summary = spans.summarize(spans.merge([own] + [c["spans"] for c in children]))

    # cover the layers this workload never calls with one traced round of
    # the workload that does
    missing = {src for span, _, src in LAYER_METRICS.values() if span not in summary}
    cover_records, cover_children = [], []
    for src in sorted(missing):
        other = W.WORKLOADS[src](gp, seed)
        cover = spans.Tracer()
        ops = other.operations(refs, cover)
        if src == "cli-cold":
            ops = [op for op, (task, _, _) in zip(ops, other.plan) if task == "qber-sweep"]
        cover.install()
        try:
            run_round(ops, src == "cli-cold")
        finally:
            cover.uninstall()
        cover_records.append(cover.records())
        cover_children += getattr(other, "tracer_spans", [])
    cover_summary = spans.summarize(
        spans.merge(cover_records + [c["spans"] for c in cover_children]))

    metrics = {}
    for metric, (span, stat, _) in LAYER_METRICS.items():
        metrics[metric] = (summary.get(span) or cover_summary[span])[stat]
    runs = [c for c in children if c["command"] == "run"] or \
        [c for c in cover_children if c["command"] == "run"]
    metrics["cli.process_rest_s"] = statistics.median(
        c["wall"] - c["import_s"]
        - sum(s["end"] - s["start"] for s in c["spans"] if s["parent"] is None)
        for c in runs
    )
    metrics["import.graviphoton_s"], metrics["import.scipy_s"] = import_profile()
    metrics["trace.overhead_pct"] = overhead

    os.makedirs(W.WORK, exist_ok=True)
    with open(os.path.join(W.WORK, f"spans-{name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": own, "children": children,
                   "coverage": cover_records, "coverage_children": cover_children}, fh)
    info(f"traced rounds={len(with_trace)} untraced rounds={len(plain)} "
         f"coverage={sorted(missing)}")
    return tally(plain + with_trace), metrics


# ---------------------------------------------------------------------------


def load_manifest():
    path = os.path.join(W.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            probe(args.workload, args.seed)
            return 0
        manifest = load_manifest()
        gp = import_program()
        cpu = pin_cpu()
        info(f"graviphoton={os.path.dirname(gp.__file__)} python={sys.version.split()[0]} "
             f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
             f"max_workers={MAX_WORKERS} cpu={cpu} nproc={os.cpu_count()}")
        if args.trace:
            counts, metrics = traced(gp, args.workload, args.seed, args.seconds)
            section = "per_layer"
        else:
            counts, metrics = end_to_end(gp, args.workload, args.seed, args.seconds)
            section = "end_to_end"
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    units = {m["name"]: m["unit"] for m in manifest[section]}
    if set(units) != set(metrics):
        sys.stderr.write(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}\n")
        return 2
    for note in counts["notes"][:20]:
        sys.stderr.write(f"failed: {note}\n")
    info(f"attempted={counts['attempted']} failed={counts['failed']} "
         f"unexpected_failures={counts['unexpected']}")
    report(counts["unexpected"] == 0, counts, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
