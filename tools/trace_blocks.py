#!/usr/bin/env python3
"""Print the trace blocks of a bench JSON export for a parity diff.

Usage: trace_blocks.py <bench.json>

Writes [label, latency_stages, fleet_trace] for every row as sorted,
indented JSON on stdout. Forensics and stitching read the folded span
records, and --perfetto only adds the raw-span tap, so the same bench
run with and without --perfetto must print identical blocks; CI diffs
the two outputs.
"""

import json
import sys

rows = json.load(open(sys.argv[1]))["rows"]
print(json.dumps([[r["label"], r["latency_stages"], r["fleet_trace"]]
                  for r in rows], sort_keys=True, indent=1))
