#!/usr/bin/env python3
"""The C++ exporter and the Python tools read one metric catalog
(src/stats/result_metrics.def) the same way.

Fresh `--quick --json` exports of a single-machine bench and of a fleet
bench must carry, in every row, exactly the catalog's keys in catalog
order in the metrics, overload, conn and fleet blocks (plus the
hand-written avg_util / max_util / core_util and ramp). Each must pass
the validator, and a copy with any one catalog key deleted, or given a
value of the wrong JSON type, must fail it, naming that key.

Usage: test_metric_catalog.py <validate_bench_json.py>
                              <bench_phase_breakdown binary>
                              <bench_fleet_resilience binary>
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

TOOL = sys.argv[1]
SINGLE_BENCH = sys.argv[2]
FLEET_BENCH = sys.argv[3]

sys.path.insert(0, os.path.dirname(os.path.abspath(TOOL)))
import metric_catalog  # noqa: E402
import validate_bench_json  # noqa: E402

# Keys each block carries besides the catalog's, appended after them.
EXTRA_KEYS = {"metrics": ["avg_util", "max_util", "core_util"],
              "overload": [], "conn": ["ramp"], "fleet": []}
# A JSON value of the wrong type for each catalog type.
WRONG_VALUE = {"bool": 1, "std::string": 1}

FAILURES = []


def check(name, cond, detail=""):
    if cond:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name} {detail}")
        FAILURES.append(name)


def fresh_export(bench, d):
    path = os.path.join(d, os.path.basename(bench) + ".json")
    proc = subprocess.run([bench, "--quick", f"--json={path}"], cwd=d,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{bench} failed (rc={proc.returncode}):\n{proc.stdout}"
              f"{proc.stderr}")
        sys.exit(1)
    with open(path) as f:
        return json.load(f)


def validate(doc, d):
    """(passed, output) of the validator on @p doc."""
    path = os.path.join(d, "doc.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok = validate_bench_json.validate(path, quiet=True)
    return ok, out.getvalue()


def check_key_order(doc, what):
    for i, row in enumerate(doc["rows"]):
        for name in metric_catalog.BLOCKS:
            want = ([m.key for m in metric_catalog.block(name)] +
                    EXTRA_KEYS[name])
            got = list(row[name].keys())
            if got != want:
                check(f"{what} rows[{i}].{name} keys follow the catalog",
                      False, f"got {got}, want {want}")
                return
    check(f"{what}: every row's blocks hold exactly the catalog keys",
          True)


def main():
    with tempfile.TemporaryDirectory() as d:
        single = fresh_export(SINGLE_BENCH, d)
        fleet = fresh_export(FLEET_BENCH, d)
        for what, doc in (("single-machine export", single),
                          ("fleet export", fleet)):
            check_key_order(doc, what)
            ok, out = validate(doc, d)
            check(f"{what} passes the validator", ok, out)

        tiered = [r for r in fleet["rows"] if r["fleet"]["enabled"]]
        check("fleet export has a row with the fleet tier up",
              bool(tiered))
        if not tiered:
            return 1
        base = dict(fleet, rows=[tiered[0]])

        for m in metric_catalog.CATALOG:
            where = f"{m.block}.{m.key}"
            doc = copy.deepcopy(base)
            del doc["rows"][0][m.block][m.key]
            ok, out = validate(doc, d)
            check(f"deleting {where} fails",
                  not ok and f"missing key '{m.key}'" in out, out)

            doc = copy.deepcopy(base)
            doc["rows"][0][m.block][m.key] = WRONG_VALUE.get(m.type, "1")
            ok, out = validate(doc, d)
            check(f"a wrong-type {where} fails",
                  not ok and f"{where} " in out and m.type in out, out)

        # A disabled tier counts nothing: every key gated on "enabled"
        # must then read zero.
        doc = copy.deepcopy(base)
        doc["rows"][0]["fleet"]["enabled"] = False
        ok, out = validate(doc, d)
        check("fleet counters on a disabled row fail",
              not ok and "while a gate reads zero" in out, out)

    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("all metric catalog tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
