#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark: every workload briefly, both modes.

    python3 perfbench/selfcheck.py [--seconds 3] [--seed 7]

Runs each workload of BENCHMARK.json untraced and traced through run.py and
verifies that the run exits 0, that its last stdout line is a result with
correct=true and no failed op, and that every end-to-end (untraced) or
per-layer (traced) metric named in BENCHMARK.json is present, finite and in
the declared unit. The first workload's traced run is then repeated with the
same seed: the counts that must repeat exactly (service.hit_ratio,
digital.detected) have to match. Each workload's end-to-end metrics are
printed with their units and its attempted and failed op counts, so with
--seconds 20 this is also the one-command summary of all workloads. Exits
nonzero on the first problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("service.hit_ratio", "digital.detected")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0 or not lines:
        sys.exit(f"selfcheck: {where} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"selfcheck: {where}: unexpected result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"selfcheck: {where}: correct={result['correct']} "
                 f"attempted={result['attempted']} failed={result['failed']}")
    if trace == 0:
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}: {shown}",
              flush=True)
    return result["metrics"]


def check_metrics(where, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        sys.exit(f"selfcheck: {where}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(metrics))}, "
                 f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"selfcheck: {where}: {name} = {value!r} is not a finite number")
        if m["unit"] != want[name]:
            sys.exit(f"selfcheck: {where}: {name} unit {m['unit']!r}, declared {want[name]!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    first_traced = None
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            metrics = run(w, args.seed, args.seconds, trace)
            check_metrics(f"{w} --trace {trace}", metrics, declared)
            if trace == 1 and first_traced is None:
                first_traced = (w, metrics)
            print(f"selfcheck: {w} --trace {trace}: {len(metrics)} metrics ok", flush=True)

    w, metrics = first_traced
    again = run(w, args.seed, args.seconds, 1)
    for name in EXACT:
        if again[name]["value"] != metrics[name]["value"]:
            sys.exit(f"selfcheck: {w}: {name} did not repeat: "
                     f"{metrics[name]['value']} then {again[name]['value']}")
    print(f"selfcheck: {w}: {', '.join(EXACT)} repeat exactly; all checks passed")


if __name__ == "__main__":
    main()
