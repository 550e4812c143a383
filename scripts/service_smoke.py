#!/usr/bin/env python3
"""Campaign-service smoke: overload, faults, SIGTERM, restart.

End-to-end drill for the campaignd daemon (DESIGN.md section 10),
suitable for CI:

1. Start campaignd with a small queue, a fault plan (dropped and
   truncated responses, injected worker crashes) and a memo index.
2. Drive a burst of mixed-priority ras_soak requests containing both
   verbatim duplicates (same id: must coalesce/replay) and repeated
   (config, seed) keys under fresh ids (must memoize). Assert every
   request is answered ok, answers for the same key are
   byte-identical, executions never exceed the distinct key count,
   and the queue never grew past its cap. The daemon's counters are
   read from `health`, its only counter plane.
3. Exercise the live telemetry plane on the same (still faulty)
   daemon: the health histograms must be coherent, the Prometheus
   exposition must lint clean, and a streaming submit must deliver
   progress frames before its result even while the fault plan is
   mangling the wire.
4. Start a second burst and SIGTERM the daemon mid-burst. Health
   must answer *during* the burst. The drain must be clean (exit
   0): in-flight and queued work answered, new work shed with
   explicit retry-after, memo index persisted. Every client line
   must be an explicit verdict - never an error.
5. Restart the daemon on the same memo file and resubmit the first
   burst under fresh ids: every answer must come from the memo
   (zero new executions) with payloads byte-identical to phase 2.

Usage:
    service_smoke.py BENCH_DIR [--workdir DIR]

Exit status is non-zero on any violated contract.
"""

import argparse
import json
import os
import re
import signal
import socket as socketlib
import subprocess
import sys
import tempfile
import time

# Prometheus text exposition 0.0.4, the subset campaignd emits.
PROM_LINE = re.compile(
    r"^(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
    r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="(\d+|\+Inf)"\})? -?\d+)$')


def log(msg):
    print(f"service_smoke: {msg}", flush=True)


def fail(msg):
    sys.exit(f"service_smoke: FAIL: {msg}")


class Daemon:
    def __init__(self, bench_dir, socket, memo, extra=()):
        self.path = os.path.join(bench_dir, "campaignd")
        self.args = [
            self.path,
            f"--socket={socket}",
            "--workers=2",
            "--queue-cap=8",
            "--retry-after-ms=20",
            f"--memo={memo}",
            *extra,
        ]
        self.proc = None

    def start(self):
        print("+", " ".join(self.args), flush=True)
        self.proc = subprocess.Popen(
            self.args, stdout=subprocess.PIPE, text=True)

    def sigterm_and_wait(self):
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=120)
        print(out, flush=True)
        return self.proc.returncode, out


def run_client(bench_dir, socket, extra):
    cmd = [
        os.path.join(bench_dir, "campaign_client"),
        f"--socket={socket}",
        "--wait-ready-ms=10000",
        "--max-attempts=64",
        # A dropped/truncated response otherwise costs the full 5 s
        # default receive window per retry; the burst would blow the
        # 30 s call budget instead of exercising the retry path.
        "--response-timeout-ms=500",
        *extra,
    ]
    print("+", " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l]
    return proc.returncode, lines, proc.stderr


def get_counts(bench_dir, socket):
    """Counters and gauges by name, from campaign_client --health."""
    rc, lines, _ = run_client(bench_dir, socket, ["--health=json"])
    if rc != 0 or len(lines) != 1 or lines[0].get("type") != "health":
        fail("health round-trip failed")
    metrics = lines[0]["metrics"]
    return {**metrics["counters"], **metrics["gauges"]}


def wire_request(socket_path, obj, timeout=5.0):
    """One raw request line -> one parsed response line, no client
    binary in the way: proves the wire itself stays responsive."""
    with socketlib.socket(socketlib.AF_UNIX,
                          socketlib.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(socket_path)
        s.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                fail("health connection closed before a response")
            buf += chunk
        return json.loads(buf.split(b"\n", 1)[0])


def get_health(socket_path):
    h = wire_request(socket_path, {"type": "health"})
    if h.get("type") != "health":
        fail(f"health request answered with {h.get('type')!r}")
    return h


def check_byte_identity(lines, payloads_by_key):
    """Fold result lines into payloads_by_key, insisting that every
    (configHash, seed) key maps to exactly one payload byte string."""
    for line in lines:
        resp = line.get("response")
        if not resp or resp.get("type") != "result":
            continue
        if resp.get("status") != "ok":
            fail(f"request {line['id']} not ok: {resp}")
        key = (resp["configHash"], resp["seed"])
        payload = json.dumps(resp["payload"], sort_keys=False,
                             separators=(",", ":"))
        if payloads_by_key.setdefault(key, payload) != payload:
            fail(f"payload divergence for key {key}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_dir")
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="svc-smoke-")
    os.makedirs(workdir, exist_ok=True)
    socket = os.path.join(workdir, "campaignd.sock")
    memo = os.path.join(workdir, "campaignd.memo")

    faults = ["--fault-drop-every=5", "--fault-truncate-every=7",
              "--fault-crash-every=6"]
    burst1 = ["--kind=ras_soak", "--config={\"ops\":48}",
              "--count=24", "--distinct=6", "--dup-every=4",
              "--threads=6", "--priority-mod=3",
              "--id-prefix=burst1"]

    # --- Phase 1+2: faulty daemon, duplicate-heavy burst. ---------
    daemon = Daemon(args.bench_dir, socket, memo, faults)
    daemon.start()
    rc, lines, _ = run_client(args.bench_dir, socket, burst1)
    if rc != 0:
        fail(f"burst 1 client exited {rc}")
    if len(lines) != 24:
        fail(f"burst 1 answered {len(lines)}/24 requests")
    payloads = {}
    check_byte_identity(lines, payloads)
    if len(payloads) != 6:
        fail(f"burst 1 saw {len(payloads)} keys, expected 6")

    counts = get_counts(args.bench_dir, socket)
    executions = counts["campaignd_executions_total"]
    memo_hits = counts["campaignd_memo_hits_total"]
    duplicates = counts["campaignd_duplicates_total"]
    faults = counts["campaignd_faults_injected_total"]
    if executions > 6:
        fail(f"{executions} executions for 6 keys: "
             "a duplicate or retry re-executed")
    if memo_hits < 1:
        fail("no memo hits despite repeated (config, seed) keys")
    if duplicates < 1:
        fail("no coalesced/replayed duplicates despite same-id "
             "resubmissions")
    if counts["campaignd_queue_peak"] > 8:
        fail(f"queue peak {counts['campaignd_queue_peak']} exceeded "
             "cap 8")
    if faults < 1:
        fail("fault plan never fired; the drill tested nothing")
    log(f"burst 1 ok: {executions} executions, {memo_hits} memo "
        f"hits, {duplicates} duplicates, {faults} faults injected")

    # --- Phase 3: live telemetry plane. ---------------------------
    health = get_health(socket)
    counters = health["metrics"]["counters"]
    if counters["campaignd_submitted_total"] < 24:
        fail(f"submitted_total={counters['campaignd_submitted_total']}"
             " below the 24 burst-1 requests")
    e2e = health["metrics"]["histograms"]["campaignd_e2e_ms"]
    if e2e["count"] != sum(e2e["buckets"]):
        fail("e2e histogram count disagrees with its bucket sum")

    prom = wire_request(socket,
                        {"type": "health", "format": "prometheus"})
    text = prom.get("text", "")
    if not text.endswith("\n"):
        fail("prometheus exposition lacks trailing newline")
    for raw in text.splitlines():
        if not PROM_LINE.match(raw):
            fail(f"prometheus lint: bad line {raw!r}")
    for needle in ("# TYPE campaignd_submitted_total counter",
                   "# TYPE campaignd_queue_depth gauge",
                   "# TYPE campaignd_e2e_ms histogram",
                   'campaignd_e2e_ms_bucket{le="+Inf"}'):
        if needle not in text:
            fail(f"prometheus exposition missing {needle!r}")
    log(f"health histograms coherent; prometheus exposition "
        f"lints clean ({text.count('# TYPE ')} families)")

    # A streaming submit must deliver progress frames before its
    # result, even with the fault plan mangling the wire. Fresh
    # (config, seed) keys so the memo fast path can't short-circuit
    # the execution the frames report on.
    rc, lines, err = run_client(
        args.bench_dir, socket,
        ["--kind=spin", "--config={\"spinMs\":400}", "--count=2",
         "--threads=2", "--seed-base=500", "--stream=1",
         "--id-prefix=streamspin"])
    if rc != 0:
        fail(f"streaming spin client exited {rc}")
    for line in lines:
        if line["clientOutcome"] != "ok":
            fail(f"streaming request {line['id']} got "
                 f"'{line['clientOutcome']}'")
    frames = err.count("progress streamspin-")
    if frames < 3:
        fail(f"streaming spin delivered {frames} progress frames, "
             "expected at least 3")
    health2 = get_health(socket)
    if health2["metrics"]["counters"][
            "campaignd_progress_frames_total"] < frames:
        fail("server progress-frame counter below client-observed "
             f"{frames}")
    log(f"streaming spin delivered {frames} progress frames "
        "before its results, through the fault plan")

    # --- Phase 4: SIGTERM mid-burst, demand a clean drain. --------
    burst2 = subprocess.Popen(
        [os.path.join(args.bench_dir, "campaign_client"),
         f"--socket={socket}", "--kind=spin",
         "--config={\"spinMs\":80}", "--count=16", "--threads=4",
         "--seed-base=100", "--max-attempts=4",
         "--response-timeout-ms=2000",
         "--id-prefix=burst2"],
        stdout=subprocess.PIPE, text=True)
    # Health must keep answering while the burst is in flight: two
    # scrapes inside the overload window, with traffic in between.
    time.sleep(0.1)
    before = get_health(socket)["metrics"]["counters"]
    time.sleep(0.3)  # let part of the burst land, then pull the plug
    during = get_health(socket)["metrics"]["counters"]
    if during["campaignd_submitted_total"] <= \
            before["campaignd_submitted_total"]:
        fail("health scrapes bracketing the live burst saw no "
             "submissions; the burst was not actually in flight")
    log("health answered twice during the live burst "
        f"({during['campaignd_submitted_total']} submitted and "
        "counting)")
    code, out = daemon.sigterm_and_wait()
    if code != 0:
        fail(f"daemon exited {code}; drain was not clean")
    if "drained clean" not in out:
        fail("daemon did not report a clean drain")
    if not os.path.exists(memo):
        fail("drain did not persist the memo index")

    burst2_out, _ = burst2.communicate(timeout=120)
    answered = shed = 0
    for raw in burst2_out.splitlines():
        line = json.loads(raw)
        verdict = line["clientOutcome"]
        if verdict == "ok":
            answered += 1
        elif verdict in ("shedGiveUp", "unreachable", "timedOut"):
            shed += 1  # explicit refusal; resubmittable
        else:
            fail(f"burst 2 request {line['id']} got '{verdict}'")
    log(f"burst 2 through the drain: {answered} answered, "
        f"{shed} explicitly refused, 0 silent")

    # --- Phase 5: restart on the same memo; replay must be free. --
    daemon = Daemon(args.bench_dir, socket, memo)
    daemon.start()
    rc, lines, _ = run_client(
        args.bench_dir, socket,
        ["--kind=ras_soak", "--config={\"ops\":48}", "--count=6",
         "--distinct=6", "--threads=3", "--id-prefix=burst3"])
    if rc != 0:
        fail(f"burst 3 client exited {rc}")
    for line in lines:
        resp = line["response"]
        if resp.get("outcome") != "memo":
            fail(f"restarted daemon recomputed {line['id']} "
                 f"(outcome {resp.get('outcome')})")
    check_byte_identity(lines, payloads)  # must match phase 2 bytes
    if get_counts(args.bench_dir, socket)[
            "campaignd_executions_total"] != 0:
        fail("restarted daemon executed work it had memoized")
    code, _ = daemon.sigterm_and_wait()
    if code != 0:
        fail(f"restarted daemon exited {code}")
    log("restart served every key from the persisted memo, "
        "byte-identical")
    log("PASS")


if __name__ == "__main__":
    main()
