#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a pcont checkout.  It builds perfbench/bench.exe
with dune into the build directory ($CARGO_TARGET_DIR, default
.bench_build), runs it, checks that the result line names exactly the
metrics BENCHMARK.json declares, and passes the output on: the last line
of standard output is the result object.  A traced run (--trace 1) also
writes the benchmark's spans to <build dir>/perfbench-spans/.

The exit status is 0 only when the run completed and every correctness
gate held.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml", "BENCHMARK.json"):
        if not os.path.exists(need):
            return fail(need + " is missing: run from the root of a pcont checkout", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload, 2)

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dune_dir = os.path.join(build, "dune")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", dune_dir,
         "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if built.returncode != 0:
        return fail("build failed")

    cmd = [os.path.join(dune_dir, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        return fail("no result line (exit %d)" % run.returncode)

    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        return fail("metrics %s differ from BENCHMARK.json %s"
                    % (sorted(result["metrics"]), sorted(declared)))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
