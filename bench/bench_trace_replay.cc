/**
 * @file
 * Trace-replay throughput: how fast the mmap-backed binary-trace
 * path streams records through the simulated channel.
 *
 * Three measured paths over the same trace:
 *
 *   decode    MappedTrace::validateAll — pure decode off the mmap,
 *             the ceiling every replay mode shares
 *   sampled   TimedTraceReplayer with SMARTS sampling — the
 *             millions-of-ops/sec mode campaigns use for long
 *             traces (the CI-gated replayOpsPerSec figure)
 *   detailed  TimedTraceReplayer, every record through the full
 *             channel model — the exact-stimulus mode; with
 *             --recapture=FILE the replay re-captures itself and
 *             the bench checks the recaptured file is byte-for-byte
 *             the input (checksum equality), which is the CI
 *             round-trip smoke's backbone
 *
 * Without --trace=FILE the bench generates its own qsort-shaped
 * trace (--shape/--records/--seed/--mean-delay-ns/--out control
 * it). The aggregate stats land under "traceBench" for
 * scripts/bench_gate.py to distill and gate against
 * bench/baselines/BENCH_trace.json; each replayed system's simulated
 * stat tree is captured as "sampled" and "detailed" and gated
 * against bench/baselines/BENCH_trace_sim.json. sim/heap_count.hh
 * counts the detailed replay's heap allocations per record, and
 * checksumSpeedup races byte-wise FNV-1a against ckpt::WordSum, the
 * trace's integrity sum, over the mapped file (the median of 5
 * alternating pairs; a same-process ratio, so any host can gate
 * it). The
 * stats-JSON's configHash covers the trace's content checksum and
 * the flags that do not name files, so one trace gives one hash
 * wherever it lies.
 */

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "cpu/trace_replay.hh"
#include "sim/checkpoint.hh"
#include "sim/heap_count.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

using namespace contutto;

namespace
{

double
wallSec(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Run one timed replay on a fresh ConTutto system; returns wall
 *  seconds and fills @p result, @p events, the events the replay
 *  processed, and @p allocs, its heap allocations. The system's stat
 *  tree is captured under @p label. */
double
runTimed(bench::Telemetry &tm, const std::string &label,
         const trace::MappedTrace &bin,
         const sim::SamplingConfig &sampling, std::uint64_t seed,
         trace::CaptureSink *capture,
         cpu::TimedTraceReplayer::Result &result, std::uint64_t &events,
         std::uint64_t &allocs)
{
    bench::Power8System sys(bench::contuttoSystem());
    if (!sys.train())
        fatal("trace bench: link training failed");
    ClockDomain core("core", 250);
    cpu::TimedTraceReplayer::Params params;
    params.nestOverhead = sys.params().nestOverhead;
    if (sampling.enabled)
        params.sampler = &sys.enableSampling(sampling, seed);
    params.capture = capture;
    cpu::TimedTraceReplayer rep("replay", sys.eventq(), core, &sys,
                                params, sys.port());
    bool finished = false;
    const std::uint64_t events0 = sys.eventq().eventsProcessed();
    const std::uint64_t allocs0 = heapAllocations();
    auto t0 = std::chrono::steady_clock::now();
    rep.start(bin, [&](const cpu::TimedTraceReplayer::Result &r) {
        result = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    auto t1 = std::chrono::steady_clock::now();
    allocs = heapAllocations() - allocs0;
    ct_assert(finished);
    events = sys.eventq().eventsProcessed() - events0;
    tm.capture(label, sys);
    return wallSec(t0, t1);
}

/** Checksum races; odd, so the median is one race's ratio. */
constexpr int checksumPairs = 5;

/**
 * Byte-wise FNV-1a over @p bin's mapped bytes against WordSum over
 * the same bytes, checksumPairs times, alternating which runs first;
 * returns the median of the per-pair fnv1a/WordSum time ratios.
 */
double
checksumSpeedup(const trace::MappedTrace &bin)
{
    const std::size_t len = bin.fileBytes() - 8;
    auto fnvSec = [&] {
        auto t0 = std::chrono::steady_clock::now();
        (void)ckpt::fnv1a(bin.data(), len);
        return wallSec(t0, std::chrono::steady_clock::now());
    };
    auto wordSec = [&] {
        auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t sum = ckpt::WordSum::of(bin.data(), len);
        const double sec = wallSec(t0, std::chrono::steady_clock::now());
        ct_assert(sum == bin.checksum());
        return sec;
    };
    std::vector<double> ratio;
    for (int i = 0; i < checksumPairs; ++i) {
        double fnv, word;
        if (i % 2 == 0) {
            fnv = fnvSec();
            word = wordSec();
        } else {
            word = wordSec();
            fnv = fnvSec();
        }
        ratio.push_back(word > 0 ? fnv / word : 0);
    }
    std::nth_element(ratio.begin(), ratio.begin() + checksumPairs / 2,
                     ratio.end());
    return ratio[checksumPairs / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Binary trace replay throughput");

    std::string path = bench::parseFlag(argc, argv, "--trace");
    const std::string recapturePath =
        bench::parseFlag(argc, argv, "--recapture");
    const std::uint64_t seed = tm.seed();

    if (path.empty()) {
        trace::GenerateSpec spec;
        spec.shape = trace::shapeFromName(
            bench::parseFlag(argc, argv, "--shape", "qsort"));
        spec.records = bench::parseUnsigned(argc, argv,
                                            "--records", 200000);
        spec.seed = seed;
        spec.meanDelay = nanoseconds(bench::parseUnsigned(
            argc, argv, "--mean-delay-ns", 200));
        path = bench::parseFlag(argc, argv, "--out",
                                "bench_trace.bin");
        trace::GenerateResult g = trace::generate(spec, path);
        std::printf("generated %s: %s, %llu records, checksum "
                    "%016llx\n",
                    path.c_str(), trace::shapeName(spec.shape),
                    (unsigned long long)g.recordCount,
                    (unsigned long long)g.checksum);
    }

    trace::MappedTrace bin(path);
    tm.setConfigHash(bench::traceConfigHash(argc, argv, bin.checksum()));
    const double records = double(bin.recordCount());
    std::printf("trace %s: %llu records, checksum %016llx\n\n",
                path.c_str(), (unsigned long long)bin.recordCount(),
                (unsigned long long)bin.checksum());

    // 1. Pure decode off the mmap.
    auto d0 = std::chrono::steady_clock::now();
    Tick span = bin.validateAll();
    auto d1 = std::chrono::steady_clock::now();
    const double decodeSec = wallSec(d0, d1);
    const double decodeOps =
        decodeSec > 0 ? records / decodeSec : 0;

    // 2. The integrity sum against byte-wise FNV-1a.
    const double sumSpeedup = checksumSpeedup(bin);

    // 3. Sampled timed replay — the gated throughput figure.
    sim::SamplingConfig sampling = tm.samplingConfig();
    sampling.enabled = true;
    cpu::TimedTraceReplayer::Result sampledR;
    std::uint64_t sampledEvents = 0, sampledAllocs = 0;
    const double sampledSec =
        runTimed(tm, "sampled", bin, sampling, seed, nullptr, sampledR,
                 sampledEvents, sampledAllocs);
    const double sampledOps =
        sampledSec > 0 ? records / sampledSec : 0;

    // 4. Detailed timed replay, optionally recapturing itself.
    std::unique_ptr<trace::CaptureSink> sink;
    if (!recapturePath.empty())
        sink = std::make_unique<trace::CaptureSink>(recapturePath);
    sim::SamplingConfig detailed; // disabled
    cpu::TimedTraceReplayer::Result detailedR;
    std::uint64_t detailedEvents = 0, detailedAllocs = 0;
    const double detailedSec =
        runTimed(tm, "detailed", bin, detailed, seed, sink.get(),
                 detailedR, detailedEvents, detailedAllocs);
    const double detailedOps =
        detailedSec > 0 ? records / detailedSec : 0;
    // Host-independent: the same trace always costs the same events.
    const double eventsPerRecord =
        records > 0 ? double(detailedEvents) / records : 0;
    const double sampledEventsPerRecord =
        records > 0 ? double(sampledEvents) / records : 0;
    const double allocsPerRecord =
        records > 0 ? double(detailedAllocs) / records : 0;

    double recaptureMatch = -1;
    if (sink) {
        sink->close();
        recaptureMatch =
            sink->checksum() == bin.checksum() ? 1 : 0;
        std::printf("recapture %s: checksum %016llx (%s)\n",
                    recapturePath.c_str(),
                    (unsigned long long)sink->checksum(),
                    recaptureMatch == 1 ? "matches input"
                                        : "MISMATCH");
    }

    std::printf("%-10s %12s %12s\n", "path", "wall", "ops/sec");
    bench::rule();
    std::printf("%-10s %10.3fs %12.0f\n", "decode", decodeSec,
                decodeOps);
    std::printf("%-10s %10.3fs %12.0f  (detailed trips: %llu, %.3f "
                "events/record)\n",
                "sampled", sampledSec, sampledOps,
                (unsigned long long)sampledR.detailed,
                sampledEventsPerRecord);
    std::printf("%-10s %10.3fs %12.0f  (%.3f events/record)\n",
                "detailed", detailedSec, detailedOps, eventsPerRecord);
    std::printf("checksum   WordSum %.2fx faster than byte-wise "
                "FNV-1a (median of %d pairs)\n",
                sumSpeedup, checksumPairs);
    std::printf("\ntrace span %llu ps | sampled runtime %llu ps | "
                "detailed runtime %llu ps\n",
                (unsigned long long)span,
                (unsigned long long)sampledR.runtime,
                (unsigned long long)detailedR.runtime);

    stats::StatGroup root("traceBench");
    stats::Value recordsV(&root, "records", "records in the trace",
                          [&] { return records; });
    stats::Value decodeV(&root, "decodeOpsPerSec",
                         "mmap decode throughput",
                         [&] { return decodeOps; });
    stats::Value replayV(&root, "replayOpsPerSec",
                         "sampled timed-replay throughput (gated)",
                         [&] { return sampledOps; });
    stats::Value detailedV(&root, "detailedOpsPerSec",
                           "full-detail timed-replay throughput",
                           [&] { return detailedOps; });
    stats::Value eventsV(&root, "detailedEventsPerRecord",
                         "events processed per record in the "
                         "full-detail replay",
                         [&] { return eventsPerRecord; });
    stats::Value sampledEventsV(&root, "sampledEventsPerRecord",
                                "events processed per record in the "
                                "sampled replay",
                                [&] { return sampledEventsPerRecord; });
    stats::Value allocsV(&root, "detailedAllocsPerRecord",
                         "heap allocations per record in the "
                         "full-detail replay",
                         [&] { return allocsPerRecord; });
    stats::Value sumSpeedupV(&root, "checksumSpeedup",
                             "byte-wise FNV-1a time over WordSum time "
                             "on the mapped trace (median of 5 pairs)",
                             [&] { return sumSpeedup; });
    stats::Value matchV(
        &root, "recaptureMatch",
        "1 when the recaptured trace matched the input byte for "
        "byte (-1: not requested)",
        [&] { return recaptureMatch; });
    tm.capture("trace", root);
    tm.finish();

    // A requested recapture that does not reproduce the input is a
    // hard failure, not a statistic.
    return recaptureMatch == 0 ? 1 : 0;
}
