#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (the
program plus the repository's libraries) into .bench_build/, runs one
workload, and passes its report through; the report's last line is the
JSON result. Exits non-zero without a result when the sources are
missing, the build fails or the benchmark program fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "harp_perfbench")
WORKLOADS = ("paper_campaign", "fleet_sweep")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build harp_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "harp_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(step))


def run_bench(workload, seed, seconds, trace, scale="default",
               pinned=os.path.join(HERE, "pinned.json")):
    """Run one workload; returns (exit code, stdout text)."""
    work = os.path.join(".bench_build", "work", workload)
    args = [PROGRAM, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", scale, "--work-dir", work]
    if pinned:
        args += ["--pinned", pinned]
    if trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True)
    return proc.returncode, proc.stdout


def parse_result(stdout):
    """The result object on the last line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    code, stdout = run_bench(args.workload, args.seed, args.seconds,
                              args.trace)
    if code != 0 or parse_result(stdout) is None:
        sys.stdout.write("\n".join(l for l in stdout.splitlines()
                                   if l.startswith("#")) + "\n")
        fail("harp_perfbench failed (exit %d)" % code)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
