"""qfb benchmark: closed-loop workloads over the `qfb` command line, in process.

    python3 perfbench/run.py --workload {expand,zeros,verify,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qfb is imported from ``src``.  One
process and one thread run one operation (one ``qfb.cli.main(argv)`` call) at
a time, round after round, until ``--seconds`` have passed and at least
``MIN_TIMED`` operations were timed.  The outputs are then checked (see
workloads.py) and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice in fresh processes, untraced for half of ``--seconds`` and then
traced, and reports the per-layer metrics of the traced pass together with
``trace.overhead_s``, the difference of the two passes' operation time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# op_tail_s is the sample with ten samples beyond it, so a run times at least 11
MIN_TIMED = 11
SETUP_REPEATS = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import qfb.cli; "
              "qfb.cli.build_parser(); print(time.perf_counter() - t)")


def run_op(cli, op, gauge) -> None:
    """One in-process qfb.cli.main call; an escaped exception is the op's result."""
    out, err = io.StringIO(), io.StringIO()
    token = gauge.begin()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.rc = cli.main(op.argv)
    except SystemExit as exc:
        op.rc = exc.code
    except Exception as exc:  # the traceback a user would see
        op.rc = f"{type(exc).__name__}: {exc}"
    op.seconds, op.scaled = gauge.end(token)
    op.out = out.getvalue()


def measure(workload, seconds: float, rounds: int | None = None, after_op=None,
            min_timed: int = MIN_TIMED) -> list:
    """Run whole blocks of rounds until the time and min_timed operations (or
    the given round count) are used up.

    Timings of the calibration loop of speed.py around and during each
    operation give its time at the nominal machine speed.
    """
    from qfb import cli

    done = []
    timed = 0
    gauge = speed.Gauge()
    start = time.perf_counter()
    try:
        while True:
            rnd = workload.round(len(done))
            gauge.read()
            for op in rnd.ops:
                run_op(cli, op, gauge)
                if after_op:
                    after_op()
            done.append(rnd)
            timed += sum(op.ok for op in rnd.timed())
            if rounds is not None:
                if len(done) >= rounds:
                    return done
            elif (len(done) % workload.BLOCK == 0 and time.perf_counter() - start >= seconds
                  and timed >= min_timed):
                return done
    finally:
        gauge.close()


def counts(workload, rounds: list) -> tuple[int, int, dict]:
    """(attempted, failed, {probe tag: [where, attempts, failures, first error]})."""
    attempted = failed = 0
    probes: dict[str, list] = {}
    for rnd in rounds:
        for op in rnd.ops:
            attempted += 1
            if op.fault is None:
                failed += not op.ok
                continue
            entry = probes.setdefault(op.fault, [op.where, 0, 0, None])
            entry[1] += 1
            if workload.probe_failed(op):
                failed += 1
                entry[2] += 1
                entry[3] = entry[3] or (op.rc if op.rc != 0 else "wrong output")
    return attempted, failed, probes


def check(workload, rounds: list) -> tuple[bool, list[float]]:
    """Check every round whose timed operations all succeeded."""
    digits: list[float] = []
    correct = True
    for rnd in rounds:
        if not all(op.ok for op in rnd.timed()):
            continue
        try:
            digits += workload.check(rnd)
        except (AssertionError, ArithmeticError) as exc:
            print(f"CHECK FAILED round {rnd.index} {rnd.params.get('q')} "
                  f"{rnd.params.get('nu')}: {exc}", file=sys.stderr)
            correct = False
    return correct, digits


def digest(rounds: list) -> str:
    """Hash of every operation's result and standard output (argv holds the
    per-process work directory, so it is left out)."""
    h = hashlib.sha256()
    for rnd in rounds:
        for op in rnd.ops:
            h.update(repr((op.rc, op.out)).encode())
    return h.hexdigest()


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import qfb.cli and build its
    parser, at the nominal machine speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.loop_seconds()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds = float(res.stdout.strip().splitlines()[-1])
        times.append(speed.scale(seconds, before, speed.loop_seconds()))
    return statistics.median(times)


def source_lines() -> int:
    pkg = os.path.join(SRC, "qfb")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def end_to_end(args, workload) -> dict:
    setup = None if args.child else setup_seconds()
    sys.path.insert(0, SRC)
    # the untraced pass of a trace run reports no timing statistics
    rounds = measure(workload, args.seconds, min_timed=1 if args.child else MIN_TIMED)
    attempted, failed, probes = counts(workload, rounds)
    correct, digits = check(workload, rounds)
    times = sorted(op.scaled for rnd in rounds for op in rnd.timed() if op.ok)
    raw = sorted(op.seconds for rnd in rounds for op in rnd.timed() if op.ok)
    n = len(times)
    tail_pct = 100.0 * (n - 10) / n
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / sum(times), "op/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (times[n - 11] if n > 10 else None, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "min_digits": (min(digits) if digits else 0.0, "digits"),
    }
    print(f"{workload.name}: {len(rounds)} rounds, {n} timed operations; "
          f"op_tail_s is p{tail_pct:.1f} of {n} samples")
    print(f"unscaled wall time: {n / sum(raw):.4g} op/s, median {statistics.median(raw):.4g} s; "
          f"scaled by {sum(times) / sum(raw):.3f} to the nominal speed")
    for tag, (where, tries, fails, first) in sorted(probes.items()):
        print(f"probe {tag} [{where}]: failed {fails} of {tries}; {first}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if v is not None}}
    if args.child:
        result["rounds"] = len(rounds)
        result["op_scaled_s"] = sum(op.scaled for rnd in rounds for op in rnd.timed())
        result["digest"] = digest(rounds)
    return result


def traced(args, workload) -> dict:
    import tracer

    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds / 2.0), "--trace", "0",
         "--child"], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"untraced pass failed with exit code {child.returncode}")
    sys.stderr.write(child.stderr)
    untraced = json.loads(child.stdout.strip().splitlines()[-1])

    sys.path.insert(0, SRC)
    from qfb import cli

    rec = tracer.Recorder()
    tracer.install(rec)
    families = sorted(cli.FAMILIES)
    rounds = measure(workload, 0.0, rounds=untraced["rounds"], after_op=rec.fold)
    attempted, failed, _ = counts(workload, rounds)
    wall = sum(op.scaled for rnd in rounds for op in rnd.timed())
    same = digest(rounds) == untraced["digest"]
    if not same:
        print("traced outputs differ from the untraced pass", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in tracer.per_layer(rec, families).items()}
    metrics["trace.overhead_s"] = {"value": wall - untraced["op_scaled_s"], "unit": "s"}
    metrics["src.lines"] = {"value": source_lines(), "unit": "lines"}
    print(f"{workload.name}: traced {len(rounds)} rounds, {wall:.2f} s of timed operations "
          f"against {untraced['op_scaled_s']:.2f} s untraced (nominal speed)")
    return {"correct": untraced["correct"] and same, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_dps"):
        return "digits"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qfb", "cli.py")):
        print(f"error: no qfb source under {SRC}; run from a qfb checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], cwd=ROOT)
            status = status or res.returncode
        return status

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = traced(args, workload) if args.trace else end_to_end(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        if not args.child:
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
