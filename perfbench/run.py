#!/usr/bin/env python3
"""Build and run the serving benchmark of the isolated sdrad runtime.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload kv-paced --seed 1 --seconds 10 --trace 0

builds `perfbench/` (a Cargo package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload and passes its output through:
every metric by name with its unit on stderr, the result object as the
last line of stdout. `--trace 1` measures the per-layer metrics instead of
the end-to-end ones and keeps the run's spans under the build directory.

Every metric of every workload, then the correctness checks:

    python3 perfbench/run.py --report [--seed 1] [--seconds 4]

prints each workload's end-to-end and per-layer metrics as
`workload metric value unit`, then runs the generator self-tests, and
exits non-zero if any run was incorrect or a self-test failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv-paced", "kv-hostile", "http-conn"]
# A run measures for --seconds plus set-up, warm-up, probes and replay;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170
# glibc moves its mmap threshold with allocation history, so the runtime's
# 1 MiB domain heaps land either on fresh mmap'd pages (a page fault per
# page on first touch) or on recycled arena memory, and kv-hostile, which
# creates thousands of domains, flipped between about 20k and 31k req/s on
# identical runs. Fixing the threshold at glibc's starting value of 128 KiB
# keeps every run in the regime a fresh process starts in: every heap
# above 128 KiB is a fresh mapping, so the heap churn is measured in full.
ALLOCATOR = "glibc.malloc.mmap_threshold=131072"


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cargo(*args, timeout):
    """Runs cargo on the benchmark package; its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    command = ["cargo", *args, "--release", "--offline", "--manifest-path",
               os.path.join(HERE, "Cargo.toml")]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=timeout).returncode


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    binary = os.path.join(target_dir(), "release", "sdrad-perfbench")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(target_dir(), "perfbench-spans",
                             f"{workload}-seed{seed}.csv")
        command += ["--spans", spans]
    env = dict(os.environ, GLIBC_TUNABLES=ALLOCATOR)
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def report(seed, seconds):
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(workload, seed, seconds, trace)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                correct = False
            for name, metric in result.get("metrics", {}).items():
                print(f"{workload:<11} {name:<32} {metric['value']:>18.6f} "
                      f"{metric['unit']}")
            print(f"{workload:<11} trace={trace} correct={result.get('correct')} "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    tests = cargo("test", timeout=600)
    print(f"self-tests: {'passed' if tests == 0 else 'FAILED'}")
    print(f"correct: {correct and tests == 0}")
    return 0 if correct and tests == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, traced and untraced, "
                             "then the self-tests")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")

    try:
        if cargo("build", "--quiet", timeout=850) != 0:
            print("benchmark build failed", file=sys.stderr)
            return 1
        if args.report:
            return report(args.seed, args.seconds)
        code, lines = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
    except subprocess.TimeoutExpired as expired:
        print(f"timed out: {expired.cmd}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
