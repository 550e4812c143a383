#!/usr/bin/env python3
"""Usage: bench_smoke.py OUT_DIR BENCH...  Run every BENCH binary once.

Each BENCH runs with --stats-json=OUT_DIR/<name>.json. The check fails
when a bench exits non-zero or writes a stats file that strict_json.py
rejects. It checks no values: that is the paper-claims gate's job.
"""
import os
import subprocess
import sys

STRICT_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "strict_json.py")

if len(sys.argv) < 3:
    sys.exit(__doc__.strip())
out_dir = sys.argv[1]
os.makedirs(out_dir, exist_ok=True)
failures = []
for bench in sys.argv[2:]:
    name = os.path.basename(bench)
    stats = os.path.join(out_dir, name + ".json")
    if os.path.exists(stats):
        os.remove(stats)
    run = subprocess.run([bench, "--stats-json=" + stats],
                         stdout=subprocess.DEVNULL)
    if run.returncode != 0:
        failures.append("%s: exit status %d" % (name, run.returncode))
        continue
    if not os.path.exists(stats):
        failures.append("%s: wrote no stats file" % name)
        continue
    check = subprocess.run([sys.executable, STRICT_JSON, stats],
                           capture_output=True, text=True)
    if check.returncode != 0:
        failures.append(check.stderr.strip())
for f in failures:
    print("FAIL", f)
sys.exit(1 if failures else 0)
