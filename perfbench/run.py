#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload synth_serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
toolkit and the runner in Release mode (into $CARGO_TARGET_DIR, default
.bench_build/); later calls only rebuild what changed. The runner's output
passes through unchanged: its last stdout line is the JSON result, and the
exit code is the runner's (nonzero when a check failed or the build did).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_serve", "fault_campaign", "scenario_sweep", "translated_mc")
# Environment the runner must not inherit: a forced SIMD backend, a trace
# export file or a slow-request log would change what is measured.
SCRUBBED = ("MSTS_SIMD", "MSTS_TRACE_PATH", "MSTS_SLOW_REQUEST_S", "MSTS_BENCH_SCALE",
            "MSTS_BENCH_JSON_DIR")


def build():
    """Configure (once) and build the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: toolkit sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bin", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["MSTS_THREADS"] = "2"
    env["MSTS_TRACE"] = env["MSTS_METRICS"] = str(args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
