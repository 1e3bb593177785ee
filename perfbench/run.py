#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-offline --seed 1 --seconds 15 --trace 0

It configures and builds perfbench/ (the qrc library from src/, the qrc CLI
and the benchmark program) into .bench_build/, runs the harness self-test
after a build, then runs one workload. The last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails (for instance when the sources are missing).
"""

import argparse
import glob
import os
import signal
import subprocess
import sys

WORKLOADS = ("corpus-offline", "serve-fresh", "serve-mixed")
BUILD_TIMEOUT_S = 840
# A run ends well inside 180 s; the first run in a checkout also trains
# the model.
RUN_TIMEOUT_S = 170
FIRST_RUN_TIMEOUT_S = 600


def build(root, build_dir):
    """Configures and builds into build_dir; returns True when it built."""
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_COMPILER_LAUNCHER="],
            ["cmake", "--build", build_dir, "-j4"],
        ]
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S,
                                      check=False)
            except subprocess.TimeoutExpired:
                return False
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    if not build(root, build_dir):
        sys.stderr.write("perfbench: build failed, see %s\n"
                         % os.path.join(build_dir, "build.log"))
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.DEVNULL, check=False)
    if selftest.returncode != 0:
        sys.stderr.write("perfbench: harness self-test failed\n")
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--build-dir", build_dir]
    trained = glob.glob(os.path.join(build_dir, "model-*.txt"))
    # Own process group, so that a timeout also stops the server the
    # benchmark started.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S if trained else FIRST_RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
