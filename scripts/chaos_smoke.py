#!/usr/bin/env python3
"""Chaos smoke: kill campaigns mid-run, resume them, diff the output.

Two end-to-end resilience checks, suitable for CI:

1. bench_crash_campaign: run a victim that stops dead at its first
   checkpoint boundary (--kill-after), resume it (--resume), and
   byte-compare its stats-JSON against the same campaign run
   uninterrupted with no checkpointing at all. The deterministic
   engine's contract is bit-equality, so the diff is `cmp`, not a
   tolerance. Two broken copies of the victim's checkpoint (one
   flipped byte, cut to half its length) must each be refused with
   exit 2 and "resume refused: ..." on stderr, and print no results.

2. bench_ras_soak: start a supervised multi-seed soak farm with a
   task ledger, SIGKILL the process partway through (a real kill, not
   a cooperative stop), rerun with the same ledger, and require the
   rerun to finish every remaining seed with a healthy verdict and
   exit 0.

Usage:
    chaos_smoke.py BENCH_DIR [--seed N] [--workdir DIR]

Exit status is non-zero on any divergence or failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kw)


def check_json(path):
    with open(path) as f:
        json.load(f)


def refused_resume_smoke(bench, ckpt, seed):
    with open(ckpt, "rb") as f:
        good = f.read()
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0x01
    broken = {"flipped": bytes(flipped), "halved": good[:len(good) // 2]}
    for name, data in broken.items():
        path = f"{ckpt}.{name}"
        with open(path, "wb") as f:
            f.write(data)
        cmd = [bench, f"--seed={seed}", f"--resume={path}"]
        print("+", " ".join(cmd), "(must be refused)", flush=True)
        res = subprocess.run(cmd, capture_output=True, text=True)
        os.remove(path)
        if res.returncode != 2:
            sys.exit(f"chaos_smoke: {name} checkpoint: exit "
                     f"{res.returncode}, expected 2\n{res.stderr}")
        if "resume refused: " not in res.stderr:
            sys.exit(f"chaos_smoke: {name} checkpoint: no 'resume "
                     f"refused' message\n{res.stderr}")
        if "DURABILITY VIOLATIONS" in res.stdout:
            sys.exit(f"chaos_smoke: {name} checkpoint: printed a "
                     "results table")
        print(f"crash campaign: {name} checkpoint refused: "
              f"{res.stderr.strip()}")


def crash_campaign_smoke(bench_dir, workdir, seed):
    bench = os.path.join(bench_dir, "bench_crash_campaign")
    ckpt = os.path.join(workdir, "crash.ckpt")
    base_json = os.path.join(workdir, "crash-base.json")
    resumed_json = os.path.join(workdir, "crash-resumed.json")

    # Uninterrupted control: no checkpoint flags at all, so this also
    # proves checkpointing runs are non-perturbing.
    run([bench, f"--seed={seed}", f"--stats-json={base_json}"])

    # Victim: die at the first checkpoint boundary.
    run([bench, f"--seed={seed}", f"--checkpoint={ckpt}",
         "--checkpoint-every=2", "--kill-after=1"])
    if not os.path.exists(ckpt):
        sys.exit("chaos_smoke: victim left no checkpoint behind")

    # A broken checkpoint is refused: exit 2, one "resume refused"
    # line on stderr, no results table.
    refused_resume_smoke(bench, ckpt, seed)

    # Resume and byte-compare.
    run([bench, f"--seed={seed}", f"--resume={ckpt}",
         f"--stats-json={resumed_json}"])
    check_json(base_json)
    check_json(resumed_json)
    with open(base_json, "rb") as a, open(resumed_json, "rb") as b:
        if a.read() != b.read():
            sys.exit("chaos_smoke: resumed stats-JSON diverged from "
                     "the uninterrupted run")
    print("crash campaign: killed, resumed, bit-identical")


def soak_ledger_smoke(bench_dir, workdir, seed):
    bench = os.path.join(bench_dir, "bench_ras_soak")
    ledger = os.path.join(workdir, "soak.ledger")
    cmd = [bench, f"--seed={seed}", "--seeds=8", "--shards=2",
           f"--ledger={ledger}"]

    # A real mid-run kill. If the farm finishes before the kill
    # lands, the rerun below degenerates to a no-op resume — still a
    # valid (if weaker) pass, so don't fail on the race.
    print("+", " ".join(cmd), "(to be SIGKILLed)", flush=True)
    victim = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    time.sleep(0.1)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait()

    # The rerun must pick up the ledger and finish the job (or find
    # it already complete, when the farm beat the kill).
    done = run(cmd, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    if ("ledger: 8 of 8 seed(s) done" not in done.stdout
            and "all 8 seed(s) are in the ledger"
            not in done.stdout):
        sys.exit("chaos_smoke: soak rerun did not complete the "
                 "ledger")
    print("soak farm: SIGKILLed, resumed from ledger, completed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_dir",
                    help="directory with the bench binaries")
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="chaos_smoke_")
    os.makedirs(workdir, exist_ok=True)
    crash_campaign_smoke(args.bench_dir, workdir, args.seed)
    soak_ledger_smoke(args.bench_dir, workdir, args.seed)
    print("chaos smoke: all checks passed")


if __name__ == "__main__":
    main()
