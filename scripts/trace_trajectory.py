#!/usr/bin/env python3
"""Distill a bench_trace_replay --stats-json capture into a trajectory.

Reads the capture document bench_trace_replay wrote via --stats-json
and emits a compact BENCH_trace.json: the trace size, the mmap decode
throughput, the sampled timed-replay throughput (the headline
millions-of-ops/sec figure), the full-detail replay throughput, and
whether the requested recapture reproduced the input trace byte for
byte.  CI runs this on every push so the trace-replay trajectory is
diffable across commits.

With --check BASELINE the script gates:

  - replayOpsPerSec must be >= the floor (the baseline's
    "replayOpsFloor", default 1e6 ops/sec): the sampled mmap replay
    path is the mode campaigns lean on for long traces, and a
    regression below a million replayed records per second makes
    trace-driven campaigns impractical.  The floor is deliberately
    far under the recorded baseline value so runner-hardware spread
    cannot fail an honest build.
  - detailedOpsPerSec must be >= the floor (the baseline's
    "detailedOpsFloor", default 5e4 ops/sec): full-detail replay,
    where every record crosses the DMI link, the buffer and DRAM
    through the event queue, is the path the per-trip host cost
    work targets.  Like the sampled floor it sits far under the
    recorded value, and well under it on slower runners.
  - recaptureMatch must not be 0: when the bench was asked to
    recapture its own replay (the CI smoke always asks), the
    recaptured file must equal the input checksum-for-checksum, or
    the capture->replay round trip is corrupting traces.  -1 (not
    requested) passes; an explicit mismatch never does.
  - records must be > 0: an empty trace would vacuously "meet" any
    throughput floor.

Usage: trace_trajectory.py STATS_JSON [--check BASELINE]
           > BENCH_trace.json
"""

import json
import re
import sys

REPLAY_OPS_FLOOR = 1.0e6
DETAILED_OPS_FLOOR = 5.0e4

WANTED = re.compile(
    r"(records|decodeOpsPerSec|replayOpsPerSec|detailedOpsPerSec"
    r"|recaptureMatch)$")


def walk(group, prefix, out):
    for name, stat in group.get("stats", {}).items():
        if not isinstance(stat, dict):
            continue
        if not WANTED.search(name):
            continue
        if stat.get("value") is None:
            continue
        out[prefix + "." + name] = stat["value"]
    for sub in group.get("groups", []):
        walk(sub, prefix + "." + sub["name"], out)


def distill(doc):
    captures = []
    for cap in doc.get("captures", []):
        stats = {}
        root = cap["stats"]
        walk(root, root.get("name", "root"), stats)
        captures.append({"label": cap["label"], "trace": stats})
    return {"schema": "contutto-trace-trajectory-v1",
            "source": "bench_trace_replay --stats-json capture",
            "replayOpsFloor": REPLAY_OPS_FLOOR,
            "detailedOpsFloor": DETAILED_OPS_FLOOR,
            "captures": captures}


def flat(trajectory):
    out = {}
    for cap in trajectory.get("captures", []):
        for key, value in cap.get("trace", {}).items():
            out[key] = value
    return out


def check(fresh, baseline_path):
    with open(baseline_path) as f:
        base = json.load(f)
    now = flat(fresh)
    failed = False

    floors = {
        "replayOpsPerSec":
            float(base.get("replayOpsFloor", REPLAY_OPS_FLOOR)),
        "detailedOpsPerSec":
            float(base.get("detailedOpsFloor", DETAILED_OPS_FLOOR)),
    }

    records = now.get("traceBench.records")
    if not records or records <= 0:
        sys.stderr.write("FAIL records: %r (empty trace)\n"
                         % records)
        failed = True
    else:
        sys.stderr.write("ok   records: %d\n" % records)

    for name, floor in floors.items():
        ops = now.get("traceBench." + name)
        if ops is None:
            sys.stderr.write("MISSING traceBench.%s\n" % name)
            failed = True
            continue
        verdict = "FAIL" if ops < floor else "ok"
        sys.stderr.write(
            "%-4s %s: %.0f vs floor %.0f\n"
            % (verdict, name, ops, floor))
        if ops < floor:
            failed = True

    match = now.get("traceBench.recaptureMatch")
    if match == 0:
        sys.stderr.write("FAIL recaptureMatch: the recaptured "
                         "replay did not reproduce the input "
                         "trace\n")
        failed = True
    else:
        sys.stderr.write("ok   recaptureMatch: %r\n" % match)
    return failed


def main():
    args = sys.argv[1:]
    baseline = None
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--check" and i + 1 < len(args):
            baseline = args[i + 1]
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) != 1:
        sys.stderr.write(__doc__)
        return 2

    with open(positional[0]) as f:
        doc = json.load(f)
    trajectory = distill(doc)
    json.dump(trajectory, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

    if baseline is not None and check(trajectory, baseline):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
