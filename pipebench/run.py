#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Usage, from the repository root:

  python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds pipebench/ (the dmt library from
src/ plus the `pipeline` executable) into .bench_build/pipebench; later
calls only rebuild what changed. The executable's standard output is
passed through, so its last line is the JSON result. A traced run
(--trace 1) also writes a Chrome trace-event file to .bench_build/traces/.
The exit status is the executable's, or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "pipebench"
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configures (once) and builds; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("pipebench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "pipeline"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--tmp", str(OUT / "tmp")]
    if args.trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"pipebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
