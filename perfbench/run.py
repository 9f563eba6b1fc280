#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--inject KIND]

Builds perfbench/ (a CMake package that compiles ../src) in Release mode
into $CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench at the
repository root), then runs the driver. Build output goes to stderr; the
driver's report goes to stdout and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--inject is for the self-tests (selftest.py) only. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver's own budget is --seconds plus at most one repetition; this
# bounds a hung run so the script always exits.
DRIVER_TIMEOUT_S = 150


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def log(*cmd):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)


def build(bdir):
    """Configure and build; returns the driver path or None."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs,
              "--target", "perfbench_driver"]]
    for cmd in steps:
        log(*cmd)
        if subprocess.run(cmd, stdout=sys.stderr.fileno()).returncode:
            return None
    return os.path.join(bdir, "perfbench_driver")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the simulator and benchmark sources, so a result
    outside a git checkout still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("fingerprint", "clamp", "shape"))
    args = ap.parse_args()

    bdir = build_dir()
    driver = build(bdir)
    if driver is None or not os.path.exists(driver):
        print("run.py: build failed", file=sys.stderr)
        return 1
    outdir = os.path.join(bdir, "out")
    os.makedirs(outdir, exist_ok=True)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source", source_digest(),
           "--out", outdir]
    if args.inject:
        cmd += ["--inject", args.inject]
    log(*cmd)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: driver timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        print("run.py: driver printed no result line", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
