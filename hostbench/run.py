#!/usr/bin/env python3
"""Build and run the TICSim host-throughput benchmark.

Usage (from the repository root):

    python3 hostbench/run.py --workload grid_powered --seed 1 \
        --seconds 10 --trace 0
    python3 hostbench/run.py --record-goldens

The first call configures and builds hostbench/ (an optimized CMake
project over ../src) into $CARGO_TARGET_DIR/hostbench, or
.bench_build/hostbench when that variable is unset; later calls only
re-check the build. Build output goes to stderr. stdout carries a
provenance line, the benchmark's report line and, last, the result
object {"correct", "attempted", "failed", "metrics"}.

Exits nonzero without printing a result when the simulator sources are
missing, the build fails, or the benchmark does not finish in time.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hostbench")


def build():
    """Configure (once) and build the benchmark; return the binary."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ticshostbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 3)
    return os.path.join(out, "ticshostbench")


def source_digest():
    """SHA-256 over the simulator and benchmark sources (provenance for
    checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def run(binary, args, timeout):
    env = dict(os.environ)
    env["TICSIM_TRACE_DIR"] = os.path.join(ROOT, "docs", "traces")
    try:
        return subprocess.run([binary] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        fail(f"benchmark did not finish within {timeout} s", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true",
                    help="rewrite hostbench/goldens from this source tree")
    a = ap.parse_args()
    if not a.record_goldens and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full "
             "checkout")
    binary = build()
    goldens = os.path.join(HERE, "goldens")

    if a.record_goldens:
        done = run(binary, ["--record-goldens", goldens], None)
        sys.stdout.write(done.stdout)
        return done.returncode

    print(json.dumps({"provenance": {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }}), flush=True)
    done = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", repr(a.seconds),
                        "--trace", str(a.trace),
                        "--goldens", goldens, "--work-dir", build_dir()],
               RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}", 5)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result line has unexpected keys", 5)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
