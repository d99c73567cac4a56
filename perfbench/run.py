#!/usr/bin/env python3
"""Builds the GNMR library and the benchmark from this checkout, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the checkout root (configured once,
rebuilt incrementally). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when the build fails, the source tree is missing, or an output
check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gnmr_perfbench")
WORKLOADS = ("train_taobao", "serve_zipf_swap", "serve_uniform_hnsw")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it. Returns the exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if sys.exc_info()[0] is subprocess.TimeoutExpired:
            return None
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no GNMR source tree next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gnmr_perfbench",
                  "-j", "4"])
    for cmd in steps:
        code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not build():
        return 2
    sys.stdout.flush()
    code = run_group([BINARY, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", args.trace], RUN_TIMEOUT_S)
    if code is None:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
