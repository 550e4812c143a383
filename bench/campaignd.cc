/**
 * @file
 * campaignd: the campaign service daemon.
 *
 * Binds the Unix-domain socket, serves campaign requests until
 * SIGTERM/SIGINT, then drains gracefully: admission stops (new
 * submits are shed with a retry-after hint), in-flight and queued
 * work finishes, the memo index is persisted, and the process exits
 * 0 on a clean drain. Exit code 1 means the drain budget expired
 * and stragglers were cancelled — answered, but not finished.
 *
 *   campaignd --socket=PATH [--workers=N] [--queue-cap=N]
 *             [--memo-cap=N] [--memo=FILE] [--deadline-ms=N]
 *             [--retry-after-ms=N] [--attempts=N]
 *             [--drain-timeout-ms=N]
 *             [--progress-period-ms=N] [--sample-period-ms=N]
 *             [--trace-out=FILE]
 *             [--fault-delay-every=N] [--fault-delay-ms=N]
 *             [--fault-drop-every=N] [--fault-truncate-every=N]
 *             [--fault-crash-every=N]
 *
 * The --fault-* flags arm the chaos plan: deterministic-cadence
 * response delays/drops/truncations and worker crashes, the knobs
 * scripts/service_smoke.py turns to prove the exactly-once story.
 *
 * --trace-out enables the span tracker for the daemon's lifetime
 * and writes the captured svc.queue / svc.exec / svc.serialize
 * spans (one tid per request trace id) as a Perfetto trace-event
 * JSON file at drain, so a served burst can be loaded straight
 * into ui.perfetto.dev.
 */

#include <csignal>
#include <cstdio>
#include <fstream>

#include "bench_util.hh"
#include "service/server.hh"

namespace
{

volatile std::sig_atomic_t gSignal = 0;

void
onSignal(int sig)
{
    gSignal = sig;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace contutto::service;

    CampaignServer::Params p;
    p.socketPath =
        bench::parseFlag(argc, argv, "--socket", "campaignd.sock");
    p.workers =
        unsigned(bench::parseUnsigned(argc, argv, "--workers", 2));
    p.queueCap = std::size_t(
        bench::parseUnsigned(argc, argv, "--queue-cap", 64));
    p.memoCapacity = std::size_t(
        bench::parseUnsigned(argc, argv, "--memo-cap", 4096));
    p.memoPath = bench::parseFlag(argc, argv, "--memo");
    p.defaultDeadlineMs =
        bench::parseUnsigned(argc, argv, "--deadline-ms", 0);
    p.shedRetryAfterMs = bench::parseUnsigned(
        argc, argv, "--retry-after-ms", 50);
    p.attempts =
        unsigned(bench::parseUnsigned(argc, argv, "--attempts", 2));
    p.drainTimeout = std::chrono::milliseconds(
        bench::parseUnsigned(argc, argv, "--drain-timeout-ms",
                             30000));
    p.progressPeriod = std::chrono::milliseconds(
        bench::parseUnsigned(argc, argv, "--progress-period-ms",
                             100));
    p.samplePeriod = std::chrono::milliseconds(
        bench::parseUnsigned(argc, argv, "--sample-period-ms",
                             50));
    const std::string traceOut =
        bench::parseFlag(argc, argv, "--trace-out");
    if (!traceOut.empty()) {
        contutto::span::setCapacity(1 << 16);
        contutto::span::setEnabled(true);
    }
    p.faults.delayEveryN = unsigned(
        bench::parseUnsigned(argc, argv, "--fault-delay-every", 0));
    p.faults.delayMs =
        bench::parseUnsigned(argc, argv, "--fault-delay-ms", 50);
    p.faults.dropEveryN = unsigned(
        bench::parseUnsigned(argc, argv, "--fault-drop-every", 0));
    p.faults.truncateEveryN = unsigned(bench::parseUnsigned(
        argc, argv, "--fault-truncate-every", 0));
    p.faults.crashEveryN = unsigned(bench::parseUnsigned(
        argc, argv, "--fault-crash-every", 0));

    CampaignServer server(p);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaignd: %s\n", e.what());
        return 2;
    }
    std::printf("campaignd: serving on %s (%u workers, queue cap "
                "%zu)\n",
                p.socketPath.c_str(), p.workers, p.queueCap);
    std::fflush(stdout);

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (gSignal == 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));

    std::printf("campaignd: signal %d, draining\n", int(gSignal));
    std::fflush(stdout);
    bool clean = server.stop();

    if (!traceOut.empty()) {
        std::ofstream f(traceOut);
        if (f) {
            contutto::telemetry::writePerfettoTrace(f);
            std::printf("campaignd: wrote trace to %s\n",
                        traceOut.c_str());
        } else {
            std::fprintf(stderr,
                         "campaignd: cannot write trace to %s\n",
                         traceOut.c_str());
        }
    }

    // The summary reads the registry, the one place the daemon
    // counts anything, after the drain has settled every job.
    const contutto::metrics::Snapshot s = server.metricsSnapshot();
    auto n = [&s](const char *name) {
        return (unsigned long long)s.counterValue(name);
    };
    std::printf(
        "campaignd: drained %s — submitted %llu accepted %llu "
        "completed %llu shed %llu duplicates %llu memoHits %llu "
        "executions %llu faultsInjected %llu queuePeak %lld\n",
        clean ? "clean" : "DIRTY (stragglers cancelled)",
        n("campaignd_submitted_total"), n("campaignd_accepted_total"),
        n("campaignd_completed_total"), n("campaignd_shed_total"),
        n("campaignd_duplicates_total"),
        n("campaignd_memo_hits_total"),
        n("campaignd_executions_total"),
        n("campaignd_faults_injected_total"),
        (long long)s.gauge("campaignd_queue_peak")->value);
    return clean ? 0 : 1;
}
