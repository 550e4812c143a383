#!/usr/bin/env python3
"""Gate a bench --stats-json capture against its checked-in baseline.

Usage: bench_gate.py STATS_JSON... BASELINE [--write-baseline PATH]

The baseline (bench/baselines/BENCH_*.json, schema
contutto-bench-gate-v1) decides what is kept and what is checked:

  keep      regex on stat names.  Every matching stat in the capture's
            StatGroup tree is distilled under the key
            "label/dotted.path": a scalar as its value (null values
            are dropped), a distribution that saw samples as its
            {count, mean, min, max, stddev, p50, p99} subset.
  rules     a list of {"stat": glob, CHECK[, "minCores": N]} where
            CHECK is one of
              "min": x            fresh >= x
              "max": x            fresh <= x
              "equals": x         fresh == x
              "vsBaseline": tol   fresh >= baseline * (1 - tol)
              "sameAsBaseline": true   fresh == baseline, exactly
            The glob is matched against the baseline's keys; a glob
            matching nothing, or a matched stat absent from the fresh
            capture, is MISSING and fails.  A sameAsBaseline rule's
            glob is also matched against the fresh capture's keys: a
            stat (or capture label) found only there is NEW and
            fails, so the baseline cannot lag the capture.  A rule
            with minCores is SKIPped when the fresh capture's
            *.hostCores is below N, and a vsBaseline rule is not
            armed when the baseline's own *.hostCores is below N.
  captures  the distilled baseline capture the rules compare against.

Several STATS_JSON files are gated as one capture; each capture label
is then qualified with the file's bench, as "BINARY:label" (from its
meta.binary), since two benches may label their captures alike.

The distilled fresh capture goes to stdout in the same schema, so it
diffs directly against the baseline; verdicts go to stderr.  The exit
status is 1 when any check FAILs or is MISSING or NEW.  --write-baseline
PATH also writes the distilled capture to PATH, refusing (and failing)
when its hostCores is below the smallest minCores of any rule.
"""

import argparse
import fnmatch
import json
import re
import sys

SCHEMA = "contutto-bench-gate-v1"
DIST_FIELDS = ("count", "mean", "min", "max", "stddev", "p50", "p99")


def walk(group, prefix, keep, out):
    for name, stat in group.get("stats", {}).items():
        if not isinstance(stat, dict) or not keep.search(name):
            continue
        if "count" in stat:
            if stat["count"] > 0:
                out[prefix + "." + name] = {
                    k: stat[k] for k in DIST_FIELDS
                    if stat.get(k) is not None}
        elif stat.get("value") is not None:
            out[prefix + "." + name] = stat["value"]
    for sub in group.get("groups", []):
        walk(sub, prefix + "." + sub["name"], keep, out)


def distill(doc, keep, qualify=False):
    prefix = doc["meta"]["binary"] + ":" if qualify else ""
    captures = []
    for cap in doc.get("captures", []):
        stats = {}
        root = cap["stats"]
        walk(root, root.get("name", "root"), re.compile(keep), stats)
        captures.append({"label": prefix + cap["label"],
                         "stats": dict(sorted(stats.items()))})
    return captures


def flat(gate):
    return {cap["label"] + "/" + path: value
            for cap in gate["captures"]
            for path, value in cap["stats"].items()}


def host_cores(values):
    return next((int(v) for k, v in values.items()
                 if fnmatch.fnmatchcase(k, "*.hostCores")), 0)


def show(value):
    if isinstance(value, (int, float)):
        return "%.6g" % value
    return json.dumps(value, sort_keys=True)


def judge(rule, got, want):
    """(passed, detail) for one rule's check on one stat."""
    if "min" in rule:
        return got >= rule["min"], "%s (min %s)" % (
            show(got), show(rule["min"]))
    if "max" in rule:
        return got <= rule["max"], "%s (max %s)" % (
            show(got), show(rule["max"]))
    if "equals" in rule:
        return got == rule["equals"], "%s (must equal %s)" % (
            show(got), show(rule["equals"]))
    if "vsBaseline" in rule:
        floor = want * (1.0 - rule["vsBaseline"])
        return got >= floor, "%s vs baseline %s (floor %s)" % (
            show(got), show(want), show(floor))
    if rule.get("sameAsBaseline"):
        if got == want:
            return True, "same as baseline"
        return False, "%s != baseline %s" % (show(got), show(want))
    raise ValueError("rule has no check: %r" % rule)


def check(fresh, base):
    """Print one verdict per (rule, stat); True when any failed."""
    now, was = flat(fresh), flat(base)
    now_cores, base_cores = host_cores(now), host_cores(was)
    failed = False

    def say(verdict, key, detail):
        nonlocal failed
        failed = failed or verdict in ("FAIL", "MISSING", "NEW")
        sys.stderr.write("%-4s %s: %s\n" % (verdict, key, detail))

    for rule in base["rules"]:
        keys = sorted(k for k in was
                      if fnmatch.fnmatchcase(k, rule["stat"]))
        if not keys:
            say("MISSING", rule["stat"], "matches no baseline stat")
        need = rule.get("minCores", 0)
        for key in keys:
            got = now.get(key)
            if got is None:
                say("MISSING", key, "absent from the fresh capture")
            elif now_cores < need:
                say("SKIP", key, "host has %d core(s), rule needs %d "
                    "(measured %s)" % (now_cores, need, show(got)))
            elif "vsBaseline" in rule and base_cores < need:
                say("SKIP", key, "baseline was captured on %d core(s), "
                    "rule needs %d" % (base_cores, need))
            else:
                passed, detail = judge(rule, got, was[key])
                say("ok" if passed else "FAIL", key, detail)
        if rule.get("sameAsBaseline"):
            for key in sorted(k for k in now if k not in was
                              and fnmatch.fnmatchcase(k, rule["stat"])):
                say("NEW", key, "absent from the baseline")
    return failed


def write_baseline(gate, path):
    """Persist gate as a baseline; refuse captures with too few cores."""
    need = min((r["minCores"] for r in gate["rules"] if "minCores" in r),
               default=0)
    cores = host_cores(flat(gate))
    if cores < need:
        sys.stderr.write(
            "REFUSING --write-baseline %s: the fresh capture was "
            "recorded on a %d-core host. SpeedupVsSerial measured "
            "without real parallelism is noise, and committing it "
            "as a baseline would make the regression gate compare "
            "future runs against meaningless ratios. Re-capture on "
            "a host with >= %d cores.\n" % (path, cores, need))
        return True
    with open(path, "w") as f:
        json.dump(gate, f, indent=2)
        f.write("\n")
    sys.stderr.write("wrote baseline %s (hostCores %d)\n" % (path, cores))
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(
        usage="%(prog)s STATS_JSON... BASELINE [--write-baseline PATH]")
    parser.add_argument("stats_json", nargs="+")
    parser.add_argument("baseline")
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)

    with open(args.baseline) as f:
        base = json.load(f)
    if base.get("schema") != SCHEMA:
        sys.stderr.write("%s: schema %r, want %r\n"
                         % (args.baseline, base.get("schema"), SCHEMA))
        return 2
    fresh = {k: base[k] for k in ("schema", "source", "keep", "rules")}
    fresh["captures"] = []
    for path in args.stats_json:
        with open(path) as f:
            doc = json.load(f)
        fresh["captures"] += distill(doc, base["keep"],
                                     len(args.stats_json) > 1)
    json.dump(fresh, sys.stdout, indent=2)
    sys.stdout.write("\n")

    failed = check(fresh, base)
    if args.write_baseline is not None:
        failed = write_baseline(fresh, args.write_baseline) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
