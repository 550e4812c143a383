#!/usr/bin/env python3
"""Unit tests for bench_gate.py and the checked-in bench baselines.

Run: python3 -m unittest scripts/test_bench_gate.py (ctest: bench_gate).
"""

import contextlib
import copy
import fnmatch
import glob
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = os.path.join(HERE, "..", "bench", "baselines")
sys.path.insert(0, HERE)

import bench_gate  # noqa: E402


def stats_doc(captures):
    """A --stats-json document holding {label: {dotted.path: value}}.

    A number becomes a scalar stat, a dict a distribution stat.
    """
    doc = {"meta": {"binary": "test"}, "captures": []}
    for label, stats in captures.items():
        root = None
        for path, value in stats.items():
            parts = path.split(".")
            if root is None:
                root = {"name": parts[0], "stats": {}, "groups": []}
            group = root
            for name in parts[1:-1]:
                sub = next((g for g in group["groups"]
                            if g["name"] == name), None)
                if sub is None:
                    sub = {"name": name, "stats": {}, "groups": []}
                    group["groups"].append(sub)
                group = sub
            if isinstance(value, dict):
                stat = dict(value, kind="distribution")
            else:
                stat = {"kind": "scalar", "value": value}
            group["stats"][parts[-1]] = stat
        doc["captures"].append({"label": label, "stats": root})
    return doc


def baseline(rules, stats, keep="."):
    return {"schema": bench_gate.SCHEMA, "source": "test", "keep": keep,
            "rules": rules,
            "captures": [{"label": "cap", "stats": stats}]}


class GateCase(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def gate(self, base, fresh, *extra):
        """Gate fresh, a stats document or the "cap" capture's stats.

        Returns (exit status, distilled stdout document, stderr).
        """
        if "captures" not in fresh:
            fresh = stats_doc({"cap": fresh})
        for name, doc in (("base.json", base), ("stats.json", fresh)):
            with open(self.path(name), "w") as f:
                json.dump(doc, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = bench_gate.main([self.path("stats.json"),
                                  self.path("base.json")] + list(extra))
        return rc, json.loads(out.getvalue()), err.getvalue()

    def verdict(self, rule, base_value, fresh_value, **more):
        base = baseline([dict(rule, stat="cap/g.x")],
                        dict({"g.x": base_value}, **more))
        return self.gate(base, dict({"g.x": fresh_value}, **more))


class RuleKinds(GateCase):

    def test_min(self):
        rc, _, err = self.verdict({"min": 5.0}, 9, 5.0)
        self.assertEqual(rc, 0)
        self.assertIn("ok   cap/g.x: 5 (min 5)", err)
        rc, _, err = self.verdict({"min": 5.0}, 9, 4.99)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL cap/g.x", err)

    def test_max(self):
        self.assertEqual(self.verdict({"max": 0.05}, 0, 0.05)[0], 0)
        rc, _, err = self.verdict({"max": 0.05}, 0, 0.051)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL cap/g.x", err)

    def test_equals(self):
        self.assertEqual(self.verdict({"equals": 1}, 1, 1)[0], 0)
        self.assertEqual(self.verdict({"equals": 1}, 1, 0)[0], 1)
        self.assertEqual(self.verdict({"equals": 1}, 1, -1)[0], 1)

    def test_vs_baseline(self):
        rule = {"vsBaseline": 0.15}
        self.assertEqual(self.verdict(rule, 2.0, 1.7)[0], 0)
        rc, _, err = self.verdict(rule, 2.0, 1.69)
        self.assertEqual(rc, 1)
        self.assertIn("FAIL cap/g.x: 1.69 vs baseline 2 (floor 1.7)", err)

    def test_same_as_baseline(self):
        dist = {"count": 4, "mean": 2.5, "min": 1, "max": 4}
        rule = {"sameAsBaseline": True}
        rc, _, err = self.verdict(rule, dist, dict(dist))
        self.assertEqual(rc, 0)
        self.assertIn("same as baseline", err)
        self.assertEqual(self.verdict(rule, dist, dict(dist, mean=2.6))[0],
                         1)
        self.assertEqual(self.verdict(rule, 3, 3.0000001)[0], 1)


class CoresAndMissing(GateCase):

    def test_min_cores_skips_on_a_small_host(self):
        rc, _, err = self.verdict({"min": 1.5, "minCores": 4}, 2.0, 0.5,
                                  **{"g.hostCores": 2})
        self.assertEqual(rc, 0)
        self.assertIn("SKIP cap/g.x: host has 2 core(s), rule needs 4", err)
        rc, _, _ = self.verdict({"min": 1.5, "minCores": 4}, 2.0, 0.5,
                                **{"g.hostCores": 4})
        self.assertEqual(rc, 1)

    def test_vs_baseline_not_armed_by_a_small_baseline(self):
        base = baseline([{"stat": "cap/g.x", "vsBaseline": 0.15,
                          "minCores": 2}],
                        {"g.x": 2.0, "g.hostCores": 1})
        rc, _, err = self.gate(base, {"g.x": 0.5, "g.hostCores": 4})
        self.assertEqual(rc, 0)
        self.assertIn("SKIP cap/g.x: baseline was captured on 1 core(s)",
                      err)
        base["captures"][0]["stats"]["g.hostCores"] = 2
        self.assertEqual(self.gate(base, {"g.x": 0.5,
                                          "g.hostCores": 4})[0], 1)

    def test_stat_missing_from_fresh_capture(self):
        base = baseline([{"stat": "cap/g.x", "equals": 1}],
                        {"g.x": 1, "g.y": 1})
        rc, _, err = self.gate(base, {"g.y": 1})
        self.assertEqual(rc, 1)
        self.assertIn("MISSING cap/g.x: absent from the fresh capture", err)

    def test_stat_new_in_fresh_capture(self):
        base = baseline([{"stat": "*", "sameAsBaseline": True},
                         {"stat": "cap/g.x", "equals": 1}],
                        {"g.x": 1})
        rc, _, err = self.gate(base, {"g.x": 1, "g.y": 0})
        self.assertEqual(rc, 1)
        self.assertIn("NEW  cap/g.y: absent from the baseline", err)
        self.assertEqual(err.count("NEW"), 1)
        # Only a sameAsBaseline rule looks for new stats.
        base["rules"] = base["rules"][1:]
        self.assertEqual(self.gate(base, {"g.x": 1, "g.y": 0})[0], 0)

    def test_capture_label_new_in_fresh_capture(self):
        base = baseline([{"stat": "*", "sameAsBaseline": True}],
                        {"g.x": 1})
        fresh = stats_doc({"cap": {"g.x": 1}, "cap2": {"g.x": 1}})
        rc, _, err = self.gate(base, fresh)
        self.assertEqual(rc, 1)
        self.assertIn("NEW  cap2/g.x: absent from the baseline", err)

    def test_glob_matching_nothing(self):
        base = baseline([{"stat": "*.nope", "min": 0}], {"g.x": 1})
        rc, _, err = self.gate(base, {"g.x": 1})
        self.assertEqual(rc, 1)
        self.assertIn("MISSING *.nope: matches no baseline stat", err)


class Distill(GateCase):

    def test_keep_null_and_empty_distributions(self):
        fresh = stats_doc({"cap": {
            "sys.a.readLatency": {"count": 2, "mean": 3.0, "min": 2,
                                  "max": 4, "stddev": 1.0, "p50": None},
            "sys.b.idleLatency": {"count": 0, "mean": None},
            "sys.a.writeLatency": 7,
            "sys.a.nullLatency": None,
            "sys.a.other": 1}})
        base = baseline([], {}, keep="(?i)latency$")
        _, out, _ = self.gate(base, fresh)
        self.assertEqual(out["captures"], [{"label": "cap", "stats": {
            "sys.a.readLatency": {"count": 2, "mean": 3.0, "min": 2,
                                  "max": 4, "stddev": 1.0},
            "sys.a.writeLatency": 7}}])
        self.assertEqual(out["keep"], "(?i)latency$")


class SeveralCaptures(GateCase):

    def test_labels_are_qualified_by_bench(self):
        docs = []
        for binary, value in (("bench_a", 1), ("bench_b", 2)):
            doc = stats_doc({"cfg": {"g.x": value}})
            doc["meta"]["binary"] = binary
            docs.append(doc)
        base = {"schema": bench_gate.SCHEMA, "source": "test",
                "keep": ".",
                "rules": [{"stat": "*", "sameAsBaseline": True}],
                "captures": [
                    {"label": "bench_a:cfg", "stats": {"g.x": 1}},
                    {"label": "bench_b:cfg", "stats": {"g.x": 2}}]}
        paths = []
        for i, doc in enumerate(docs):
            paths.append(self.path("stats%d.json" % i))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        with open(self.path("base.json"), "w") as f:
            json.dump(base, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = bench_gate.main(paths + [self.path("base.json")])
        self.assertEqual(rc, 0, err.getvalue())
        self.assertEqual(json.loads(out.getvalue())["captures"],
                         base["captures"])
        self.assertIn("ok   bench_b:cfg/g.x: same as baseline",
                      err.getvalue())


class WriteBaseline(GateCase):

    RULES = [{"stat": "*.speedup", "min": 1.0, "minCores": 2},
             {"stat": "*.speedup", "min": 1.5, "minCores": 4}]

    def test_refuses_a_one_core_capture(self):
        stats = {"g.speedup": 1.0, "g.hostCores": 1}
        out = self.path("new.json")
        rc, _, err = self.gate(baseline(self.RULES, stats), stats,
                               "--write-baseline", out)
        self.assertEqual(rc, 1)
        self.assertIn("REFUSING --write-baseline", err)
        self.assertIn(">= 2 cores", err)
        self.assertFalse(os.path.exists(out))

    def test_writes_a_multi_core_capture(self):
        stats = {"g.speedup": 1.2, "g.hostCores": 2}
        out = self.path("new.json")
        rc, doc, _ = self.gate(baseline(self.RULES, stats), stats,
                               "--write-baseline", out)
        self.assertEqual(rc, 0)
        with open(out) as f:
            self.assertEqual(json.load(f), doc)
        self.assertEqual(doc["rules"], self.RULES)


def pushed(rule, value):
    """A value just past the rule's bound."""
    if "min" in rule:
        return rule["min"] - 0.5
    if "max" in rule:
        return rule["max"] * 2
    if "equals" in rule:
        return rule["equals"] - 1
    if "vsBaseline" in rule:
        return value * (1.0 - rule["vsBaseline"]) * 0.99
    if isinstance(value, dict):
        return dict(value, mean=value["mean"] + 0.5)
    return value + 1


class CheckedInBaselines(GateCase):

    def baselines(self):
        paths = sorted(glob.glob(os.path.join(BASELINES, "BENCH_*.json")))
        self.assertEqual(len(paths), 8)
        for path in paths:
            with open(path) as f:
                yield os.path.basename(path), json.load(f)

    @staticmethod
    def own_stats(base):
        return stats_doc({cap["label"]: cap["stats"]
                          for cap in base["captures"]})

    def test_each_passes_its_own_values(self):
        for name, base in self.baselines():
            with self.subTest(baseline=name):
                self.assertEqual(base["schema"], bench_gate.SCHEMA)
                self.assertTrue(base["rules"])
                rc, out, err = self.gate(base, self.own_stats(base))
                self.assertEqual(rc, 0, err)
                self.assertNotIn("FAIL", err)
                self.assertEqual(out["captures"], base["captures"])

    def test_each_rule_fails_past_its_bound(self):
        for name, base in self.baselines():
            values = bench_gate.flat(base)
            for rule in base["rules"]:
                need = rule.get("minCores", 0)
                if "vsBaseline" in rule and \
                        bench_gate.host_cores(values) < need:
                    continue
                key = next(k for k in sorted(values)
                           if fnmatch.fnmatchcase(k, rule["stat"]))
                with self.subTest(baseline=name, rule=rule):
                    fresh = copy.deepcopy(base)
                    for cap in fresh["captures"]:
                        for path in cap["stats"]:
                            if path.endswith(".hostCores"):
                                cap["stats"][path] = max(need, 1)
                        label, path = key.split("/", 1)
                        if cap["label"] == label:
                            cap["stats"][path] = pushed(rule, values[key])
                    rc, _, err = self.gate(base, self.own_stats(fresh))
                    self.assertEqual(rc, 1, err)
                    self.assertIn("FAIL " + key, err)


if __name__ == "__main__":
    unittest.main()
