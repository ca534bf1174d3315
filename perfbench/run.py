#!/usr/bin/env python3
"""Build and run the ntcu benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fig15b-d40 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload in turn

Builds perfbench/main.exe with dune (cache disabled, everything under
_build/), runs one workload in a child process and checks that the last line
it prints is the result object, with exactly the metrics BENCHMARK.json
declares for the mode (end_to_end untraced, per_layer traced). Traced runs
write their spans to perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "out")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")


def run_one(workload, seed, seconds, trace, declared):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-dir", SPANS_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}", 3)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result keys {sorted(result)}", 3)
    names = set(result["metrics"])
    if names != declared:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(declared - names)}, extra {sorted(names - declared)}", 3)
    return lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; default: all in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of an ntcu source checkout")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(sorted(names))})")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    declared = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    build()
    if args.workload is not None:
        line, _ = run_one(args.workload, args.seed, seconds, args.trace, declared)
        print(line)
        return
    # Every workload in turn; the last line sums the operations.
    correct, attempted, failed = True, 0, 0
    for w in bench["workloads"]:
        line, result = run_one(w["name"], args.seed, seconds, args.trace, declared)
        print(f"{w['name']}: {line}")
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
