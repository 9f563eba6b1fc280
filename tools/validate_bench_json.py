#!/usr/bin/env python3
"""Validate a bench --json export against the exporter's schema.

Usage: validate_bench_json.py [--quiet] <file.json> [<file.json> ...]

Every violation in every file is reported (one line each) before the
exit status is decided -- a document with three problems prints three
lines, not just the first. With --quiet, per-file OK lines are
suppressed and only violations print.

Checks (stdlib only, used by CI and by hand after editing the exporter):
  - schema_version is exactly the exporter's version (SCHEMA_VERSION)
  - required top-level / per-row keys are present with sane types
  - every key the metric catalog (src/stats/result_metrics.def, which
    the exporter is built from) declares for the metrics, overload,
    conn and fleet blocks is present with a JSON value of its C++ type,
    and reads zero while a key on its gate chain does (a disabled
    overload or fleet block counts nothing, no MTTR without incidents)
  - per-core phase fractions each sum to 1.0 +/- 1e-6
  - folded stacks are well formed; lock windows are ordered and carry
    completed/goodput plus the SYN-counter deltas
  - queue timelines hold at most 512 [tick, depth] samples each, with
    monotone ticks inside the measurement window, and the trace block
    marks them lossy consistently (events_overwritten <=
    events_recorded)
  - the fingerprint is a 16-hex-digit string and the invariants object
    is consistent (violations == 0 <=> failed list empty)
  - the faults block is consistent (armed <=> non-empty plan)
  - overload: enabled <=> non-empty spec, offered == admitted +
    degraded + shed, the shed reasons decompose the total, and
    admitted connections are all released or in flight
  - the latency_stages block (span forensics): stage rows carry
    monotone p50 <= p90 <= p99 <= p999 <= max percentiles and
    exemplars are structurally sound
  - conn (connection-lifetime census): TCB arena gauges vs peaks,
    bytes_per_conn > 0 whenever TCBs existed, TIME_WAIT arithmetic
    (entered >= reaped + recycled + reused + lingering), avg_probe_len
    consistent with its numerators, and structurally sound ramp
    checkpoints
  - the sim_core block (DES-core throughput): events_run /
    events_scheduled / sim_ticks always present and non-negative; the
    wall-clock trio (wall_seconds, events_per_sec, wall_per_sim_sec)
    appears all-or-none and, when present, is positive and consistent
    (events_per_sec == events_run / wall_seconds)
  - fleet (N-machine topology + L4 balancer tier), on enabled rows:
    flow conservation (created == retired + active), active <=
    active_peak, drains started >= completed, probe failures <= probes
    sent, request_success_ratio in [0, 1]; health_mode is
    "binary"/"score", score_ejections <= ejections, the incident
    funnel is monotone (recovered <= detected <= total) with
    non-negative MTTD/MTTR means; trace accounting is monotone
    (stitched/orphans <= completed <= started) and a fired burn alert
    has a positive timestamp
  - the timeseries block (known metric kinds, strictly monotone sample
    ticks, positive sample period when enabled) and the fleet_trace
    block (monotone p50 <= p99 <= p999 <= max per hop, shares in
    [0, 1], dominant hops named by a hop row)
Exit status 0 iff every document passes.
"""

import json
import re
import sys

import metric_catalog

SCHEMA_VERSION = 11
MAX_TIMELINE_SAMPLES = 512

WINDOW_KEYS = ("completed", "goodput", "syn_retransmits",
                  "syn_cookies_sent", "syn_cookies_validated",
                  "accept_queue_rsts")
FAULTS_KEYS = ("plan", "armed", "syn_cookies")

ROW_KEYS = ("label", "config", "metrics", "phases", "folded_stacks",
            "locks", "lock_windows", "queue_timelines", "trace",
            "fingerprint", "invariants")
CONFIG_KEYS = ("app", "cores", "flavor")
# The metrics block's keys besides the catalog's scalars.
METRIC_EXTRA_KEYS = ("avg_util", "max_util", "core_util")
PHASE_KEYS = ("names", "per_core", "machine")
TRACE_KEYS = ("window_span", "events_recorded", "events_overwritten")
INVARIANT_KEYS = ("checks_run", "violations", "failed")
LATENCY_STAGES_KEYS = ("enabled", "completed", "live", "shed",
                       "spans_recorded", "spans_dropped",
                       "traces_dropped", "dominant_tail_stage",
                       "stages", "exemplars")
STAGE_ROW_KEYS = ("stage", "count", "p50", "p90", "p99", "p999", "max",
                  "total_ticks")
EXEMPLAR_KEYS = ("percentile", "conn_id", "latency", "unattributed",
                 "stages", "cores")

SIM_CORE_KEYS = ("events_run", "events_scheduled", "sim_ticks")

TIMESERIES_KEYS = ("enabled", "sample_period", "series")
SERIES_KEYS = ("name", "kind", "points")
METRIC_KINDS = ("counter", "gauge", "histogram")
FLEET_TRACE_KEYS = ("enabled", "traces_completed", "orphans",
                    "duplicates", "stitched", "e2e_p50", "e2e_p99",
                    "e2e_p999", "dominant_p50", "dominant_p99",
                    "dominant_p999", "hops")
HOP_ROW_KEYS = ("hop", "p50", "p99", "p999", "max", "share")

RAMP_KEYS = ("live", "bytes_per_conn", "cycles_per_lookup",
             "avg_probe_len")

FINGERPRINT_RE = re.compile(r"^0x[0-9a-f]{16}$")


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON values a catalog member of each C++ type may export as.
JSON_TYPE_OK = {
    "bool": lambda v: isinstance(v, bool),
    "std::string": lambda v: isinstance(v, str),
    "double": _number,
    "int": lambda v: _number(v) and isinstance(v, int),
    "std::uint64_t": lambda v: _number(v) and isinstance(v, int) and v >= 0,
}
JSON_TYPE_OK["Tick"] = JSON_TYPE_OK["std::uint64_t"]


class Checker:
    """Accumulates violations for one document; never stops at the
    first problem, so a broken exporter shows its full damage in one
    validator run."""

    def __init__(self, path):
        self.path = path
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)
        return False

    def require(self, obj, keys, where):
        ok = True
        for k in keys:
            if k not in obj:
                ok = self.fail(f"{where} missing key '{k}'")
        return ok

    def ok(self):
        return not self.errors


def check_catalog_block(c, row, where, name):
    """Every catalog key of block @p name is present with its type, and
    reads zero while a key on its gate chain reads zero. Returns the
    block when the catalog part is sound, else None."""
    blk = row.get(name)
    if not isinstance(blk, dict):
        c.fail(f"{where}.{name} missing or malformed")
        return None
    metrics = metric_catalog.block(name)
    sound = True
    for m in metrics:
        if m.key not in blk:
            sound = c.fail(f"{where}.{name} missing key '{m.key}'")
        elif not JSON_TYPE_OK[m.type](blk[m.key]):
            sound = c.fail(f"{where}.{name}.{m.key} {blk[m.key]!r} is "
                           f"not a JSON {m.type}")
    if not sound:
        return None
    dirty = [m.key for m in metrics if blk[m.key] and
             any(not blk[g] for g in metric_catalog.gates(m))]
    if dirty:
        c.fail(f"{where}.{name}: non-zero {dirty} while a gate reads "
               f"zero")
    return blk


def check_phases(c, row, where):
    names = row["phases"].get("names", [])
    for cr, fracs in enumerate(row["phases"].get("per_core", [])):
        if len(fracs) != len(names):
            c.fail(f"{where} core {cr}: {len(fracs)} fractions vs "
                   f"{len(names)} names")
            continue
        total = sum(fracs)
        if abs(total - 1.0) > 1e-6:
            c.fail(f"{where} core {cr}: phase fractions sum to "
                   f"{total!r}, not 1.0")


def check_lock_windows(c, row, where):
    for w, win in enumerate(row["lock_windows"]):
        if not all(k in win for k in ("start", "end", "locks")):
            c.fail(f"{where}.lock_windows[{w}] malformed")
            continue
        if win["end"] < win["start"]:
            c.fail(f"{where}.lock_windows[{w}] end < start")
        missing = [k for k in WINDOW_KEYS if k not in win]
        if missing:
            c.fail(f"{where}.lock_windows[{w}] missing keys {missing}")
            continue
        if win["goodput"] < 0 or win["completed"] < 0:
            c.fail(f"{where}.lock_windows[{w}] negative "
                   f"completed/goodput")


def check_trace(c, row, where):
    """Queue timelines are decimated over the run and cut to the
    measurement window; the trace block marks the decimation."""
    tr = row["trace"]
    if tr["events_overwritten"] > tr["events_recorded"]:
        c.fail(f"{where}.trace: events_overwritten "
               f"{tr['events_overwritten']} > events_recorded "
               f"{tr['events_recorded']}")
    wins = [w for w in row["lock_windows"]
            if isinstance(w, dict) and "start" in w and "end" in w]
    for qname, samples in row["queue_timelines"].items():
        qw = f"{where}.queue_timelines[{qname}]"
        if not isinstance(samples, list) or any(
                not isinstance(s, list) or len(s) != 2 for s in samples):
            c.fail(f"{qw}: samples are not [tick, depth] pairs")
            continue
        if len(samples) > MAX_TIMELINE_SAMPLES:
            c.fail(f"{qw}: {len(samples)} samples, more than "
                   f"{MAX_TIMELINE_SAMPLES}")
        ticks = [s[0] for s in samples]
        if ticks != sorted(ticks):
            c.fail(f"{qw}: ticks not monotonic")
        elif ticks and ticks[-1] - ticks[0] > tr["window_span"]:
            c.fail(f"{qw}: samples spread {ticks[-1] - ticks[0]} ticks, "
                   f"more than the window span {tr['window_span']}")
        elif ticks and wins and (ticks[0] < wins[0]["start"] or
                                 ticks[-1] > wins[-1]["end"]):
            c.fail(f"{qw}: samples outside the window "
                   f"[{wins[0]['start']}, {wins[-1]['end']}]")


def check_faults(c, row, where):
    faults = row.get("faults")
    if not isinstance(faults, dict):
        c.fail(f"{where}.faults missing or malformed")
        return
    if not c.require(faults, FAULTS_KEYS, f"{where}.faults"):
        return
    if not isinstance(faults["plan"], str):
        c.fail(f"{where}.faults.plan is not a string")
        return
    if bool(faults["armed"]) != bool(faults["plan"]):
        c.fail(f"{where}.faults: armed={faults['armed']!r} inconsistent "
               f"with plan {faults['plan']!r}")


def check_overload(c, row, where):
    ov = check_catalog_block(c, row, where, "overload")
    if ov is None:
        return
    if bool(ov["enabled"]) != bool(ov["spec"]):
        c.fail(f"{where}.overload: enabled={ov['enabled']!r} "
               f"inconsistent with spec {ov['spec']!r}")
    if ov["offered"] != ov["admitted"] + ov["degraded"] + ov["shed"]:
        c.fail(f"{where}.overload: offered {ov['offered']} != admitted "
               f"+ degraded + shed")
    if ov["shed"] != (ov["shed_deadline"] + ov["shed_worker_cap"] +
                      ov["shed_pressure"]):
        c.fail(f"{where}.overload: shed reasons do not decompose "
               f"shed={ov['shed']}")
    if ov["admitted"] + ov["degraded"] != ov["released"] + ov["inflight"]:
        c.fail(f"{where}.overload: admitted + degraded != released + "
               f"inflight")
    if ov["health_admitted"] > ov["health_offered"]:
        c.fail(f"{where}.overload: health_admitted > health_offered")


def check_latency_stages(c, row, where):
    ls = row.get("latency_stages")
    if not isinstance(ls, dict):
        c.fail(f"{where}.latency_stages missing or malformed")
        return
    if not c.require(ls, LATENCY_STAGES_KEYS, f"{where}.latency_stages"):
        return
    for s, st in enumerate(ls["stages"]):
        sw = f"{where}.latency_stages.stages[{s}]"
        if not c.require(st, STAGE_ROW_KEYS, sw):
            continue
        if not (st["p50"] <= st["p90"] <= st["p99"] <=
                st["p999"] <= st["max"]):
            c.fail(f"{sw} ({st['stage']}): percentiles not monotone")
        if st["count"] <= 0:
            c.fail(f"{sw} ({st['stage']}): count must be positive")
    for e, ex in enumerate(ls["exemplars"]):
        ew = f"{where}.latency_stages.exemplars[{e}]"
        if not c.require(ex, EXEMPLAR_KEYS, ew):
            continue
        if ex["percentile"] not in ("p50", "p99", "p999"):
            c.fail(f"{ew}: bad percentile {ex['percentile']!r}")
        if ex["unattributed"] > ex["latency"]:
            c.fail(f"{ew}: unattributed > latency")
        if not isinstance(ex["cores"], list):
            c.fail(f"{ew}: cores is not a list")
    if ls["enabled"] and ls["completed"] > 0 and not ls["stages"]:
        c.fail(f"{where}.latency_stages: completed connections but no "
               f"stage rows")


def check_conn(c, row, where):
    cn = check_catalog_block(c, row, where, "conn")
    if cn is None:
        return
    if cn["tcb_live"] > cn["tcb_live_peak"]:
        c.fail(f"{where}.conn: tcb_live > peak")
    if cn["established_curr"] > cn["established_peak"]:
        c.fail(f"{where}.conn: established_curr > peak")
    if cn["time_wait_curr"] > cn["time_wait_peak"]:
        c.fail(f"{where}.conn: time_wait_curr > peak")
    if cn["tcb_live_peak"] > cn["tcb_created"]:
        c.fail(f"{where}.conn: tcb_live_peak > tcb_created")
    if cn["tcb_live_peak"] > 0 and cn["bytes_per_conn"] <= 0:
        c.fail(f"{where}.conn: TCBs existed but bytes_per_conn is "
               f"{cn['bytes_per_conn']!r}")
    # Every lingering entry left the table exactly one way (or is
    # still in it at collection time).
    accounted = (cn["time_wait_reaped"] + cn["time_wait_recycled"] +
                 cn["time_wait_reused"] + cn["time_wait_curr"])
    if cn["time_wait_entered"] < accounted:
        c.fail(f"{where}.conn: TIME_WAIT exits ({accounted}) exceed "
               f"entries ({cn['time_wait_entered']})")
    if cn["ehash_lookups"] > 0:
        avg = cn["ehash_probes_walked"] / cn["ehash_lookups"]
        if abs(avg - cn["avg_probe_len"]) > 1e-6 * max(1.0, avg):
            c.fail(f"{where}.conn: avg_probe_len "
                   f"{cn['avg_probe_len']!r} != probes/lookups {avg!r}")
    ramp = cn.get("ramp")
    if not isinstance(ramp, list):
        c.fail(f"{where}.conn.ramp is not a list")
        return
    for p, pt in enumerate(ramp):
        pw = f"{where}.conn.ramp[{p}]"
        if not c.require(pt, RAMP_KEYS, pw):
            continue
        if pt["live"] < 0 or pt["bytes_per_conn"] < 0:
            c.fail(f"{pw}: negative gauge")


def check_sim_core(c, row, where):
    sc = row.get("sim_core")
    if not isinstance(sc, dict):
        c.fail(f"{where}.sim_core missing or malformed")
        return
    if not c.require(sc, SIM_CORE_KEYS, f"{where}.sim_core"):
        return
    for k in SIM_CORE_KEYS:
        if not isinstance(sc[k], int) or sc[k] < 0:
            c.fail(f"{where}.sim_core.{k} malformed")
            return
    # Wall-clock trio: wall_seconds and events_per_sec appear together
    # (wall-stamped rows only); wall_per_sim_sec rides along whenever
    # simulated time actually advanced.
    has_wall = "wall_seconds" in sc
    if has_wall != ("events_per_sec" in sc):
        c.fail(f"{where}.sim_core: wall_seconds and events_per_sec "
               f"must appear together")
        return
    if "wall_per_sim_sec" in sc and not has_wall:
        c.fail(f"{where}.sim_core: wall_per_sim_sec without "
               f"wall_seconds")
    if has_wall:
        if sc["wall_seconds"] <= 0:
            c.fail(f"{where}.sim_core: wall_seconds not positive")
            return
        want = sc["events_run"] / sc["wall_seconds"]
        if abs(want - sc["events_per_sec"]) > 1e-6 * max(1.0, want):
            c.fail(f"{where}.sim_core: events_per_sec "
                   f"{sc['events_per_sec']!r} != events_run/"
                   f"wall_seconds {want!r}")
        if sc["sim_ticks"] > 0 and "wall_per_sim_sec" not in sc:
            c.fail(f"{where}.sim_core: sim time advanced but "
                   f"wall_per_sim_sec missing")
        if sc.get("wall_per_sim_sec", 1) <= 0:
            c.fail(f"{where}.sim_core: wall_per_sim_sec not positive")


def check_fleet(c, row, where):
    fl = check_catalog_block(c, row, where, "fleet")
    if fl is None or not fl["enabled"]:
        return
    if fl["server_machines"] < 1 or fl["balancers"] < 1:
        c.fail(f"{where}.fleet: enabled with empty topology")
    # Every flow the balancer tier ever created either retired or is
    # still in a flow table at collection.
    if fl["flows_created"] != fl["flows_retired"] + fl["flows_active"]:
        c.fail(f"{where}.fleet: flows_created "
               f"{fl['flows_created']} != retired + active")
    if fl["flows_active"] > fl["flows_active_peak"]:
        c.fail(f"{where}.fleet: flows_active > flows_active_peak")
    if fl["drains_completed"] > fl["drains_started"]:
        c.fail(f"{where}.fleet: drains_completed > drains_started")
    if fl["probe_failures"] > fl["probes_sent"]:
        c.fail(f"{where}.fleet: probe_failures > probes_sent")
    if not 0.0 <= fl["request_success_ratio"] <= 1.0:
        c.fail(f"{where}.fleet: request_success_ratio outside [0, 1]")

    # Gray failures: detector mode, ejections and the incident ledger.
    if fl["health_mode"] not in ("binary", "score"):
        c.fail(f"{where}.fleet.health_mode {fl['health_mode']!r} not "
               f"binary/score")
    if fl["score_ejections"] > fl["ejections"]:
        c.fail(f"{where}.fleet: score_ejections > ejections")
    if not (fl["incidents_recovered"] <= fl["incidents_detected"] <=
            fl["incidents_total"]):
        c.fail(f"{where}.fleet: incident funnel not monotone "
               f"(recovered <= detected <= total)")
    for mk in ("mttd_ms_mean", "mttr_ms_mean"):
        if fl[mk] < 0:
            c.fail(f"{where}.fleet.{mk} negative")

    # Trace accounting is a funnel: a trace completes at most once and
    # stitches/orphans/duplicates never outnumber what was seen.
    if fl["traces_completed"] > fl["traces_started"]:
        c.fail(f"{where}.fleet: traces_completed > traces_started")
    if fl["traces_stitched"] > fl["traces_started"]:
        c.fail(f"{where}.fleet: traces_stitched > traces_started")
    if fl["trace_orphans"] > fl["traces_completed"]:
        c.fail(f"{where}.fleet: trace_orphans > traces_completed")
    if fl["slo_first_fast_alert_ms"] < 0:
        c.fail(f"{where}.fleet.slo_first_fast_alert_ms negative")
    if fl["slo_fast_alerts"] > 0 and fl["slo_first_fast_alert_ms"] <= 0:
        c.fail(f"{where}.fleet: slo_fast_alerts fired but "
               f"slo_first_fast_alert_ms is not positive")


def check_timeseries(c, row, where):
    ts = row.get("timeseries")
    if not isinstance(ts, dict):
        c.fail(f"{where}.timeseries missing or malformed")
        return
    if not c.require(ts, TIMESERIES_KEYS, f"{where}.timeseries"):
        return
    if not isinstance(ts["series"], list):
        c.fail(f"{where}.timeseries.series is not a list")
        return
    if not ts["enabled"] and ts["series"]:
        c.fail(f"{where}.timeseries: disabled but carries "
               f"{len(ts['series'])} series")
    if ts["enabled"] and ts["series"] and ts["sample_period"] <= 0:
        c.fail(f"{where}.timeseries: sampled series with non-positive "
               f"sample_period")
    for s, se in enumerate(ts["series"]):
        sw = f"{where}.timeseries.series[{s}]"
        if not c.require(se, SERIES_KEYS, sw):
            continue
        if not isinstance(se["name"], str) or not se["name"]:
            c.fail(f"{sw}: missing/empty name")
            continue
        if se["kind"] not in METRIC_KINDS:
            c.fail(f"{sw} ({se['name']}): unknown kind {se['kind']!r}")
        pts = se["points"]
        if not isinstance(pts, list):
            c.fail(f"{sw} ({se['name']}): points is not a list")
            continue
        if any(not isinstance(p, list) or len(p) != 2 for p in pts):
            c.fail(f"{sw} ({se['name']}): points are not [tick, value] "
                   f"pairs")
            continue
        ticks = [p[0] for p in pts]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            c.fail(f"{sw} ({se['name']}): sample ticks not strictly "
                   f"monotone")


def check_fleet_trace(c, row, where):
    ft = row.get("fleet_trace")
    if not isinstance(ft, dict):
        c.fail(f"{where}.fleet_trace missing or malformed")
        return
    if not c.require(ft, FLEET_TRACE_KEYS, f"{where}.fleet_trace"):
        return
    if not isinstance(ft["hops"], list):
        c.fail(f"{where}.fleet_trace.hops is not a list")
        return
    if not ft["enabled"]:
        if ft["traces_completed"] or ft["stitched"] or ft["hops"]:
            c.fail(f"{where}.fleet_trace: disabled but carries data")
        return
    if not (ft["e2e_p50"] <= ft["e2e_p99"] <= ft["e2e_p999"]):
        c.fail(f"{where}.fleet_trace: e2e percentiles not monotone")
    hop_names = set()
    for h, hop in enumerate(ft["hops"]):
        hw = f"{where}.fleet_trace.hops[{h}]"
        if not c.require(hop, HOP_ROW_KEYS, hw):
            continue
        hop_names.add(hop["hop"])
        if not (hop["p50"] <= hop["p99"] <= hop["p999"] <= hop["max"]):
            c.fail(f"{hw} ({hop['hop']}): percentiles not monotone")
        if not 0.0 <= hop["share"] <= 1.0:
            c.fail(f"{hw} ({hop['hop']}): share outside [0, 1]")
    for q in ("dominant_p50", "dominant_p99", "dominant_p999"):
        name = ft[q]
        if not isinstance(name, str):
            c.fail(f"{where}.fleet_trace.{q} is not a string")
        elif ft["hops"] and name not in hop_names and name != "-":
            c.fail(f"{where}.fleet_trace.{q} {name!r} names no hop row")


def check_row_tail(c, row, where):
    fp = row["fingerprint"]
    if not isinstance(fp, str) or not FINGERPRINT_RE.match(fp):
        c.fail(f"{where}.fingerprint {fp!r} is not a 0x + 16-hex-digit "
               f"string")
    inv = row["invariants"]
    if not c.require(inv, INVARIANT_KEYS, f"{where}.invariants"):
        return
    if not isinstance(inv["checks_run"], int) or inv["checks_run"] < 0:
        c.fail(f"{where}.invariants.checks_run malformed")
    if not isinstance(inv["violations"], int) or inv["violations"] < 0:
        c.fail(f"{where}.invariants.violations malformed")
    if not isinstance(inv["failed"], list) or any(
            not isinstance(n, str) for n in inv["failed"]):
        c.fail(f"{where}.invariants.failed malformed")
        return
    if (inv["violations"] == 0) != (len(inv["failed"]) == 0):
        c.fail(f"{where}.invariants: violations={inv['violations']} "
               f"but failed list has {len(inv['failed'])} entries")


def validate(path, quiet=False):
    c = Checker(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        c.fail(f"unreadable: {e}")
        doc = None

    if doc is not None:
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            c.fail(f"schema_version {version!r}, expected "
                   f"{SCHEMA_VERSION}")
        else:
            if not isinstance(doc.get("bench"), str) or not doc["bench"]:
                c.fail("missing/empty 'bench' name")
            rows = doc.get("rows")
            if not isinstance(rows, list) or not rows:
                c.fail("'rows' missing or empty")
                rows = []
            for i, row in enumerate(rows):
                where = f"rows[{i}]"
                if not c.require(row, ROW_KEYS, where):
                    continue
                structural = (
                    c.require(row["config"], CONFIG_KEYS,
                              f"{where}.config") &
                    (check_catalog_block(c, row, where, "metrics")
                     is not None) &
                    c.require(row["metrics"], METRIC_EXTRA_KEYS,
                              f"{where}.metrics") &
                    c.require(row["phases"], PHASE_KEYS,
                              f"{where}.phases") &
                    c.require(row["trace"], TRACE_KEYS,
                              f"{where}.trace"))
                if not structural:
                    continue
                check_phases(c, row, where)
                for fs in row["folded_stacks"]:
                    if "stack" not in fs or "cycles" not in fs:
                        c.fail(f"{where}: malformed folded stack {fs!r}")
                check_lock_windows(c, row, where)
                check_trace(c, row, where)
                check_faults(c, row, where)
                check_overload(c, row, where)
                check_latency_stages(c, row, where)
                check_conn(c, row, where)
                check_sim_core(c, row, where)
                check_fleet(c, row, where)
                check_timeseries(c, row, where)
                check_fleet_trace(c, row, where)
                check_row_tail(c, row, where)

    for msg in c.errors:
        print(f"{path}: FAIL: {msg}")
    if c.ok() and not quiet:
        print(f"{path}: OK ({doc['bench']}, {len(doc['rows'])} rows, "
              f"schema v{doc['schema_version']})")
    return c.ok()


def main(argv):
    quiet = False
    paths = []
    for a in argv[1:]:
        if a == "--quiet":
            quiet = True
        elif a.startswith("-"):
            print(f"unknown option {a!r}")
            return 2
        else:
            paths.append(a)
    if not paths:
        print(__doc__.strip())
        return 2
    results = [validate(p, quiet) for p in paths]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
