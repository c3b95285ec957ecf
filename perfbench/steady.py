"""Steadiness check of the qfb benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed for each workload (all of BENCHMARK.json's by
default), with BENCHMARK.json's ``run_seconds``, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
n=4), the spread (q3 - q1) / median, and that spread as a share of the
metric's bound.  It also prints each run's share of failed operations, which
must be the same in every run.  The exit code is 1 when a spread other than
setup_s exceeds its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    status = 0
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            if res.returncode != 0 or not line.startswith("{"):
                print(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr}")
                return 1
            result = json.loads(line)
            if not result["correct"]:
                print(f"{name} seed {seed}: outputs not correct\n{res.stderr}")
                status = 1
            shares.append(Fraction(result["failed"], result["attempted"]))
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}", flush=True)
        print(f"\n{name}: failed share per run {sorted(set(str(s) for s in shares))}")
        if len(set(shares)) != 1:
            status = 1
        print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f} {ratio:12.2f}")
            if m["name"] != "setup_s" and spread > m["bound"]:
                status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
