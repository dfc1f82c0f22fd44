#!/usr/bin/env python3
"""Build the verifier benchmark from source and run one workload.

    python3 perfbench/run.py --workload light-cold|edit-loop \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/ there.
The last line of stdout is the result object. With --trace 1 the first
rounds of the traced run are made again in a second process with the same
seed, and every counter that differs between the two is listed (the
repeatability report).
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Every benchmark process of one invocation ends within this many seconds
# after the build.
RUN_BUDGET_S = 170


def build():
    """Configure once, then bring the build up to date; build output goes
    to a log file so stdout carries only the benchmark's report."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench", "perfbench_test"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                sys.exit(1)


def run(args, deadline, capture=False):
    try:
        return subprocess.run([os.path.join(BUILD, "perfbench")] + args,
                              cwd=ROOT, text=True,
                              timeout=max(deadline - time.monotonic(), 1),
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_BUDGET_S)
        sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def repeatability(a_rounds, b_rounds, seed):
    """Totals of every counter over the rounds both processes ran; lists
    the ones that differ. Reported, never gated."""
    n = min(len(a_rounds), len(b_rounds))
    tot_a, tot_b = {}, {}
    for rounds, tot in ((a_rounds, tot_a), (b_rounds, tot_b)):
        for r in rounds[:n]:
            for name, v in r.items():
                tot[name] = tot.get(name, 0) + v
    names = sorted(set(tot_a) | set(tot_b))
    differ = [(k, tot_a.get(k, 0), tot_b.get(k, 0)) for k in names
              if tot_a.get(k, 0) != tot_b.get(k, 0)]
    print("counter repeatability: 2 processes, seed %d, %d rounds: "
          "%d of %d counters differ" % (seed, n, len(differ), len(names)))
    for name, a, b in differ:
        spread = abs(a - b) / max(a, b)
        print("  %-36s %14d vs %14d  (%.2f%%)" % (name, a, b, 100 * spread))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if a.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")],
                                cwd=ROOT, timeout=RUN_BUDGET_S).returncode)

    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
              str(a.seconds), "--trace", a.trace]
    if a.trace == "0":
        sys.exit(run(common, deadline).returncode)

    stem = os.path.join(BUILD, "%s-%d" % (a.workload, a.seed))
    first = run(common + ["--spans-out", stem + "-spans.json",
                          "--counts-out", stem + "-counts-a.json"],
                deadline, capture=True)
    if first.returncode != 0:
        sys.stdout.write(first.stdout)
        sys.exit(first.returncode)
    a_rounds = load(stem + "-counts-a.json")
    second = run(common + ["--rounds", str(min(len(a_rounds), 2)),
                           "--overhead", "0",
                           "--counts-out", stem + "-counts-b.json"],
                 deadline, capture=True)
    if second.returncode != 0:
        sys.stdout.write(second.stdout)
        sys.exit(second.returncode)
    lines = first.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    repeatability(a_rounds, load(stem + "-counts-b.json"), a.seed)
    print(lines[-1])


if __name__ == "__main__":
    main()
