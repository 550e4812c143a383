/**
 * @file
 * ct_perfbench: host-speed benchmark of the ConTutto simulator.
 *
 *   ct_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --workdir DIR
 *   ct_perfbench --describe --workload NAME --seed N --workdir DIR
 *
 * A run repeats the workload (fresh input, fresh system) until S
 * host seconds have passed, at least three times, and reports the
 * median of the repetitions. Every run checks the simulated outputs:
 *
 *  - every record replayed / every socket op completed, none failed
 *    or poisoned, and socket reads return what was last written;
 *  - the stat-tree fingerprint (eventq counters left out) and the
 *    input hash are identical across the repetitions of a seed;
 *  - socket_mixed: the threaded executor gives the same fingerprint
 *    as the serial fallback the timed repetitions run on;
 *  - once per run, outside the timed phase, trace_detailed's trace
 *    is replayed with recapture on and the recaptured checksum must
 *    equal the input's.
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics;
 * with --trace 1 it carries the per-layer metrics, which add a traced
 * pass, a recording pass and the layer kernels. --describe prints
 * the input hash of (workload, seed) without simulating.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "perfbench.hh"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

struct Args
{
    Workload workload = Workload::traceDetailed;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool describe = false;
    std::string workdir;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--describe") {
            a.describe = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        if (arg == "--workload") {
            if (!parseWorkload(val, a.workload))
                return false;
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(val.c_str(), nullptr, 0);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(val.c_str(), nullptr);
        } else if (arg == "--trace") {
            a.trace = val == "1";
        } else if (arg == "--workdir") {
            a.workdir = val;
        } else {
            return false;
        }
    }
    return haveWorkload && !a.workdir.empty() && a.seconds > 0;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    const char *sep = "";
    for (const Metric &m : metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

int
run(const Args &args)
{
    std::filesystem::create_directories(args.workdir);
    const Workload w = args.workload;
    // Keep freed heap pages mapped between repetitions. Every
    // repetition rebuilds its system, and the memory images of the
    // sampled and socket workloads touch a few hundred MiB of 4 KiB
    // pages; returning them to the kernel after each repetition would
    // time the kernel's page-fault path, not the simulator.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    if (args.describe) {
        std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                    "\"input_hash\": \"%016llx\"}\n",
                    workloadName(w), (unsigned long long)args.seed,
                    (unsigned long long)inputHash(w, args.seed,
                                                  args.workdir));
        return 0;
    }

    // The timed phase: whole repetitions until the budget is spent,
    // with the host-speed probe before the first and after each one.
    std::vector<Rep> reps;
    std::vector<double> probes{referenceNs()};
    const auto start = Clock::now();
    do {
        reps.push_back(runRep(w, args.seed, args.workdir, {}));
        probes.push_back(referenceNs());
    } while (reps.back().errors.empty()
             && (reps.size() < 3
                 || std::chrono::duration<double>(Clock::now() - start)
                            .count()
                        < args.seconds));

    EndToEnd e;
    e.peakRssMiB = peakRssMiB();
    std::vector<double> tps, rawTps, simUs, setup;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        // > 1 when the host ran slower than the nominal reference.
        const double slowdown =
            (probes[i] + probes[i + 1]) / 2 / referenceNominalNs;
        std::printf("repetition: setup %.4f s, run %.4f s, %llu trips, "
                    "%.0f trips/s, host slowdown %.3f\n",
                    r.setupSec, r.runSec, (unsigned long long)r.trips,
                    double(r.trips) / r.runSec, slowdown);
        rawTps.push_back(double(r.trips) / r.runSec);
        tps.push_back(rawTps.back() * slowdown);
        simUs.push_back(double(r.simTicks) / 1e6 / r.runSec * slowdown);
        setup.push_back(r.setupSec / slowdown);
        attempted += r.trips;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        if (r.fingerprint != reps.front().fingerprint
            || r.inputHash != reps.front().inputHash
            || r.trips != reps.front().trips)
            errors.push_back("repetitions of one seed differ");
    }
    // Neighbours on the shared host slow some repetitions down, never
    // speed any up, and the probe catches only part of it. The fast
    // end of the scaled repetitions is the steady estimate of what the
    // simulator costs: throughput is the 90th percentile and set-up
    // time the 10th.
    e.tripsPerSec = quantile(tps, 0.9);
    e.medianTripsPerSec = median(rawTps);
    e.simUsPerHostSec = quantile(simUs, 0.9);
    e.setupSec = quantile(setup, 0.1);
    if (failed)
        errors.push_back("failed or poisoned trips");

    // Correctness checks outside the timed phase.
    if (w == Workload::socketMixed) {
        RepOptions threaded;
        threaded.threaded = true;
        const Rep s = runRep(w, args.seed, args.workdir, threaded);
        errors.insert(errors.end(), s.errors.begin(), s.errors.end());
        if (s.fingerprint != reps.front().fingerprint)
            errors.push_back("threaded run differs from serial fallback");
    }
    {
        RepOptions recap;
        recap.recapture = true;
        const Rep r =
            runRep(Workload::traceDetailed, args.seed, args.workdir, recap);
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEndMetrics(e);
    } else {
        RepOptions traced;
        traced.traced = true;
        const Rep t = runRep(w, args.seed, args.workdir, traced);
        std::printf("traced pass: run %.4f s, %.0f trips/s\n", t.runSec,
                    double(t.trips) / t.runSec);
        errors.insert(errors.end(), t.errors.begin(), t.errors.end());
        if (t.fingerprint != reps.front().fingerprint)
            errors.push_back("span capture changed the simulation");

        Recording rec;
        if (w == Workload::socketMixed) {
            recordSocket(args.seed, rec);
        } else {
            RepOptions record;
            record.record = &rec;
            const Rep r = runRep(w, args.seed, args.workdir, record);
            errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        }
        const KernelCosts k = runKernels(rec, tracePath(w, args.workdir));
        const double failShare =
            errors.empty() ? double(failed) / double(attempted ? attempted : 1)
                           : 1.0;
        metrics = layerMetrics(w, reps.front(), t, k, e, failShare);
    }

    for (const std::string &err : errors)
        std::fprintf(stderr, "check failed: %s\n", err.c_str());
    const bool correct = errors.empty();
    std::printf("%s seed %llu: %zu repetitions, %llu trips, %s\n",
                workloadName(w), (unsigned long long)args.seed, reps.size(),
                (unsigned long long)attempted,
                correct ? "all checks passed" : "CHECKS FAILED");
    printResult(correct, attempted ? attempted : 1,
                correct ? failed : (attempted ? attempted : 1), metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: ct_perfbench --workload "
                     "trace_detailed|trace_sampled|socket_mixed --seed N "
                     "--seconds S --trace 0|1 --workdir DIR "
                     "[--describe]\n");
        return 2;
    }
    // Model fatal errors and trace I/O errors surface as exceptions;
    // a run they stop has no result to print.
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ct_perfbench: %s\n", e.what());
        return 1;
    }
}
