#!/usr/bin/env python3
r"""Build and run the cost-ledger benchmark (see README.md).

Run from the root of a wanmc checkout:

    python3 costbench/run.py --workload a1_wan_open --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds costbench/ (the wanmc library from
src/ plus the benchmark program) into $CARGO_TARGET_DIR/costbench, default
.bench_build/costbench; later calls only rebuild what changed. The program's
report goes to stdout and its last line is the JSON result. With --trace 1
the Chrome trace-event file lands in <build dir>/traces/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"costbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "experiment.hpp").is_file():
        die(f"no wanmc sources under {ROOT / 'src'}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "costbench"
    build(build_dir)

    cmd = [str(build_dir / "costbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
