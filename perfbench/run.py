#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), pins the run to one core, and
prints the measurement conditions followed, as the last line, by the
benchmark's JSON result. Exits non-zero without a result if the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("paper_repro", "lossy_p16", "socket_p2")

# A run must end within this many seconds of its start, build excluded.
RUN_DEADLINE_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1

    available = sorted(os.sched_getaffinity(0))
    # One core for every workload: the simulator is logically sequential, and
    # the socket workload's two ranks then hand off on that core instead of
    # waking each other across cores, which on a shared host costs a swinging
    # amount of time (perfbench/README.md, "Measurement conditions").
    pinned = available[-1:]
    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "affinity": pinned,
        "available_cpus": available,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }
    started = time.monotonic()
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, timeout=RUN_DEADLINE_S,
            preexec_fn=lambda: os.sched_setaffinity(0, pinned))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 1
    lines = run.stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed ({run.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    conditions["loadavg_after"] = list(os.getloadavg())
    conditions["run_s"] = round(time.monotonic() - started, 3)
    print("conditions " + json.dumps(conditions))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
