#!/usr/bin/env python3
"""Tests for tools/validate_bench_json.py against a fresh export.

The fixture runs `bench_phase_breakdown --quick --json` into a
temporary directory. The fresh document must pass; each mutated copy
below must fail, and must fail for the reason it was mutated for:
  - a schema version other than the exporter's;
  - a queue timeline with more than 512 samples;
  - queue-timeline ticks that go backwards;
  - more decimated notes than notes (events_overwritten >
    events_recorded);
  - a queue-timeline sample outside the measurement window;
  - an invariants block claiming violations with no failed check named.

Usage: test_validate_bench_json.py <validate_bench_json.py>
                                   <bench_phase_breakdown binary>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOL = sys.argv[1]
BENCH = sys.argv[2]

FAILURES = []


def check(name, cond, detail=""):
    if cond:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name} {detail}")
        FAILURES.append(name)


def validate(doc, d):
    path = os.path.join(d, "doc.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    proc = subprocess.run([sys.executable, TOOL, "--quiet", path],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def fresh_export(d):
    path = os.path.join(d, "phase.json")
    proc = subprocess.run([BENCH, "--quick", f"--json={path}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"bench failed (rc={proc.returncode}):\n{proc.stdout}"
              f"{proc.stderr}")
        sys.exit(1)
    with open(path) as f:
        return json.load(f)


def mutant(fresh, mutate):
    doc = copy.deepcopy(fresh)
    mutate(doc, doc["rows"][0])
    return doc


def main():
    with tempfile.TemporaryDirectory() as d:
        fresh = fresh_export(d)
        rc, out = validate(fresh, d)
        check("fresh export passes", rc == 0, out)

        row = fresh["rows"][0]
        start = row["lock_windows"][0]["start"]
        end = row["lock_windows"][-1]["end"]
        check("fixture row has a timeline to mutate",
              bool(row["queue_timelines"]), row["queue_timelines"].keys())

        def old_schema(doc, _row):
            doc["schema_version"] = 10

        def oversized(_doc, r):
            r["queue_timelines"]["accept-shared"] = [
                [start + i, 1] for i in range(513)]

        def backwards(_doc, r):
            r["queue_timelines"]["accept-shared"] = [
                [start + 10, 1], [start + 5, 2]]

        def over_dropped(_doc, r):
            r["trace"]["events_overwritten"] = \
                r["trace"]["events_recorded"] + 1

        def outside_window(_doc, r):
            r["queue_timelines"]["accept-shared"] = [
                [end - 5, 1], [end + 1, 2]]

        def unnamed_violation(_doc, r):
            r["invariants"]["violations"] = 1
            r["invariants"]["failed"] = []

        cases = (
            ("schema_version 10 fails", old_schema, "schema_version 10"),
            ("513-sample timeline fails", oversized, "513 samples"),
            ("non-monotone timeline ticks fail", backwards,
             "not monotonic"),
            ("events_overwritten > events_recorded fails", over_dropped,
             "events_overwritten"),
            ("timeline sample past the window fails", outside_window,
             "outside the window"),
            ("violations > 0 with no failed check fails",
             unnamed_violation, "violations=1"),
        )
        for name, mutate, reason in cases:
            rc, out = validate(mutant(fresh, mutate), d)
            check(name, rc == 1 and reason in out, out)

        # A boundary timeline (exactly 512 samples, first and last on the
        # window edges) is legal.
        def full_at_edges(_doc, r):
            r["queue_timelines"]["accept-shared"] = (
                [[start, 0]] + [[start + 1, 1]] * 510 + [[end, 2]])

        rc, out = validate(mutant(fresh, full_at_edges), d)
        check("512 samples on the window edges pass", rc == 0, out)

    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("all validate_bench_json tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
