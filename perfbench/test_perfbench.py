#!/usr/bin/env python3
"""Tests of the host-speed benchmark itself.

Run from the repository root (builds ct_perfbench first):

    python3 -m unittest perfbench/test_perfbench.py

Covers: workload inputs are a pure function of the seed; every metric
ct_perfbench prints is the one BENCHMARK.json declares, with a valid
name and the declared unit; the host-cost ledger adds up.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("trace_detailed", "trace_sampled", "socket_mixed")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench_result(workload, seed, trace):
    """The parsed last line of one short ct_perfbench run."""
    workdir = os.path.join(run.BUILD, "test-%d" % os.getpid())
    try:
        lines = run.run_bench(["--workload", workload, "--seed", str(seed),
                                "--seconds", "0.01", "--trace", str(trace)],
                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(lines[-1])


def input_hash(workload, seed):
    workdir = os.path.join(run.BUILD, "test-%d" % os.getpid())
    try:
        lines = run.run_bench(["--describe", "--workload", workload,
                                "--seed", str(seed)], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(lines[-1])["input_hash"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()
        cls.results = {trace: bench_result("trace_detailed", 7, trace)
                       for trace in (0, 1)}

    def test_workload_inputs_are_deterministic(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = input_hash(w, 5)
                self.assertEqual(first, input_hash(w, 5))
                self.assertNotEqual(first, input_hash(w, 6))

    def test_spec_lists_every_workload(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_metric_names_match_benchmark_json(self):
        for trace, result in self.results.items():
            with self.subTest(trace=trace):
                expected = run.expected_metrics(self.spec, trace)
                run.check_result(result, expected)
                self.assertEqual(set(result["metrics"]), set(expected))
                for name in result["metrics"]:
                    self.assertRegex(name, NAME_RE)

    def test_declared_names_are_unique_and_valid(self):
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in self.spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)

    def test_runs_pass_their_checks(self):
        for trace, result in self.results.items():
            with self.subTest(trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_ledger_sums_to_total(self):
        metrics = self.results[1]["metrics"]
        terms = {k: v["value"] for k, v in metrics.items()
                 if k.startswith("host_ns_per_trip.")}
        total = terms.pop("host_ns_per_trip.total")
        self.assertIn("host_ns_per_trip.unattributed", terms)
        self.assertGreater(total, 0)
        self.assertAlmostEqual(sum(terms.values()), total,
                               delta=1e-9 * total)

    def test_refuses_to_run_without_sources(self):
        # A tree holding only the benchmark cannot build the simulator;
        # run.py must fail without printing a result.
        empty = os.path.join(run.BUILD, "bare-%d" % os.getpid())
        try:
            os.makedirs(empty)
            shutil.copytree(run.HERE, os.path.join(empty, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), empty)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "trace_detailed", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=empty, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
