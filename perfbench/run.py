#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_online --seed 1 \
        --seconds 20 --trace 0

The driver and the library under src/ are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run builds, later runs only check that the build is current. Build output
goes to stderr. The driver prints its result as the last line of stdout:
one JSON object with the keys correct, attempted, failed and metrics.

Exit status: the driver's (0 = every correctness check passed), or
non-zero without a result line when the sources are missing, the build
fails or a time limit is hit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_online", "offline_batch", "kernel_pipeline")
BUILD_LIMIT_S = 840  # the first run of a checkout builds everything
RUN_LIMIT_S = 170    # one measured run, set-up included


def run_group(cmd, timeout_s, stdout=None):
    """Runs `cmd` in its own process group and waits for it; on a timeout
    or an interrupt the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout_s))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing next to "
                 "perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    deadline = time.monotonic() + BUILD_LIMIT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = run_group(cmd, deadline - time.monotonic(), stdout=sys.stderr)
        if rc != 0:
            sys.exit(f"perfbench: `{' '.join(cmd)}` failed ({rc})")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not 1 <= a.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    if a.seed < 0:
        p.error("--seed must be >= 0")
    driver = build()
    cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        return run_group(cmd, RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {a.workload} exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    sys.exit(main())
