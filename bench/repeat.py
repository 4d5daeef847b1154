"""Repeatability of the end-to-end metrics.

    python3 bench/repeat.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs the benchmark command of BENCHMARK.json ``--runs`` times per workload,
each time with the next seed and the manifest's run length, and prints for
every end-to-end metric the median, the quartiles, the spread (distance
between the quartiles as a share of the median) and the metric's bound.
It also prints the share of failed operations, which must be the same in
every run.  The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: runs={len(results)} correct={correct} failed share={shares}")
        if len(shares) != 1 or not correct:
            status = 1
        for metric in manifest["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric['name']:>14s} median {med:.6g} {metric['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound {metric['bound']}  spread/bound {spread / metric['bound']:.2f}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
