#!/usr/bin/env python3
"""Host-speed benchmark of the ConTutto simulator.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles
the simulator layers it needs from src/) into .bench_build/perfbench,
runs one workload, checks the result against BENCHMARK.json and prints
it as the last line of standard output.

Run from the repository root:

    python3 perfbench/run.py --workload trace_detailed --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (traced pass, layer kernels and the host-cost ledger).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ct_perfbench")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """{name: unit} the result must carry in the given mode."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def build():
    """Configure and build ct_perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under src/")
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "ct_perfbench",
                 "-j", "4"]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True)


def run_bench(args, workdir, timeout=RUN_TIMEOUT_S):
    """Run ct_perfbench; returns its stdout lines."""
    proc = subprocess.run([BINARY] + args + ["--workdir", workdir],
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, check=True)
    return proc.stdout.splitlines()


def check_result(result, expected):
    """Raise ValueError unless @p result has the format BENCHMARK.json
    expects: the four result keys and exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise ValueError("metric names differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ set(expected)))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        if m.get("unit") != expected[name]:
            raise ValueError("unit of %s is %r, BENCHMARK.json says %r"
                             % (name, m.get("unit"), expected[name]))
        if not isinstance(m.get("value"), (int, float)):
            raise ValueError("value of %s is not a number" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    try:
        spec = load_spec()
        if opts.workload not in [w["name"] for w in spec["workloads"]]:
            raise ValueError("unknown workload %r" % opts.workload)
        build()
        workdir = os.path.join(BUILD, "work-%d" % os.getpid())
        try:
            lines = run_bench(["--workload", opts.workload,
                                "--seed", str(opts.seed),
                                "--seconds", str(opts.seconds),
                                "--trace", str(opts.trace)], workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not lines:
            raise ValueError("ct_perfbench printed nothing")
        result = json.loads(lines[-1])
        check_result(result, expected_metrics(spec, opts.trace))
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
