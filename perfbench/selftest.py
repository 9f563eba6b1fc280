#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about 3 minutes after the build).

usage: python3 perfbench/selftest.py

1. Coverage: every workload prints exactly the end-to-end metrics of
   BENCHMARK.json with --trace 0 and exactly its per-layer metrics with
   --trace 1, each with the declared unit, and passes every check.
2. Determinism: the simulated metrics repeat exactly for one seed across
   processes and change with the seed.
3. Negative tests: a mismatched fingerprint, a clamped past-tick event
   and an inverted Fig. 4(a) shape each make the run incorrect and its
   exit status nonzero.

Exits 0 when every test passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_METRICS = ("sim_cps", "sim_latency_p50_us", "sim_latency_p99_us",
               "success_ratio")


def run(workload, trace, seed=1, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            rc, res, _ = run(w, trace)
            got = ({k: v["unit"] for k, v in res["metrics"].items()}
                   if res else {})
            expect(got == declared[trace],
                   f"{w} --trace {trace}: metrics and units match "
                   f"BENCHMARK.json (missing "
                   f"{sorted(set(declared[trace]) - set(got))}, extra "
                   f"{sorted(set(got) - set(declared[trace]))})")
            expect(rc == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} --trace {trace}: correct, no failures")

    w = "fleet-haproxy-openloop"
    _, a, _ = run(w, 0, seed=1)
    _, b, _ = run(w, 0, seed=1)
    _, c, _ = run(w, 0, seed=2)
    sim = lambda r: [r["metrics"][k]["value"] for k in SIM_METRICS]
    expect(sim(a) == sim(b), f"{w}: simulated metrics repeat for one seed")
    expect(sim(a) != sim(c), f"{w}: simulated metrics change with the seed")

    for workload, trace, inject, marker in (
            ("fleet-haproxy-openloop", 0, "fingerprint", "fingerprint"),
            ("fleet-haproxy-openloop", 1, "fingerprint", "fingerprint"),
            ("fleet-haproxy-openloop", 0, "clamp", "clampedPast"),
            ("shortconn-nginx-24c", 0, "shape", "cps fastsocket")):
        rc, res, out = run(workload, trace, inject=inject)
        bit = any(line.startswith("check FAIL") and marker in line
                  for line in out.splitlines())
        expect(rc != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1 and bit,
               f"{workload} --trace {trace} --inject {inject}: run fails "
               f"on the {marker} check")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
