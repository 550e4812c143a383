/**
 * @file
 * Sharded-executor scaling benchmark: the same saturating socket
 * workload under the serial fallback and under worker threads, at
 * 1, 2 and 4 shards.
 *
 * Each configuration builds an 8-channel CDIMM socket, trains it,
 * and wall-clocks measureAggregateReadBandwidth() over a fixed
 * simulated window — every channel at full tag occupancy, so the
 * event load scales with the channel count, not the thread count.
 * For every shard count the bench runs the serial fallback and the
 * threaded engine and reports:
 *
 *   wall seconds, aggregate events/sec, speedup (serial wall /
 *   parallel wall), and the measured bandwidth of both modes.
 *
 * The bandwidth is a pure function of simulated time, so serial and
 * parallel must agree bit for bit; the bench checks that inline and
 * exports determinismOk so scripts/bench_gate.py can gate on it
 * anywhere. Speedups, by contrast, are a property of the host — a
 * single-core runner cannot show one — so the bench records
 * hostCores and the speedup floors in BENCH_parallel.json carry
 * minCores: they apply only when the host has at least as many
 * cores as shards.
 *
 * Use --stats-json=FILE for the machine-readable capture and
 * --window=NS to change the simulated window (default 40 us).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "cpu/multi_slot.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

MultiSlotSystem::Params
socketParams(unsigned shards, bool parallel)
{
    MultiSlotSystem::Params p;
    ChannelParams ch;
    ch.dimms = {DimmSpec{mem::MemTech::dram, 64 * MiB, {}, {}}};
    for (unsigned s = 0; s < MultiSlotSystem::numSlots; ++s)
        p.slots[s] = SlotSpec{SlotKind::cdimm, ch};
    p.shards = shards;
    p.parallelExec = parallel;
    return p;
}

struct RunResult
{
    double wallSec = 0;
    double bandwidth = 0;
    double eventsPerSec = 0;
};

RunResult
runOnce(unsigned shards, bool parallel, Tick window)
{
    MultiSlotSystem socket(socketParams(shards, parallel));
    if (!socket.trainAll()) {
        std::fprintf(stderr, "training failed\n");
        std::exit(1);
    }
    std::uint64_t before = 0;
    for (unsigned s = 0; s < shards; ++s)
        before += socket.executor()->queue(s).eventsProcessed();

    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.bandwidth = socket.measureAggregateReadBandwidth(window);
    const auto t1 = std::chrono::steady_clock::now();

    std::uint64_t after = 0;
    for (unsigned s = 0; s < shards; ++s)
        after += socket.executor()->queue(s).eventsProcessed();
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.eventsPerSec = double(after - before) / r.wallSec;
    return r;
}

Tick
parseWindow(int argc, char **argv, Tick def)
{
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--window=", 9) == 0)
            return nanoseconds(
                std::strtoull(argv[i] + 9, nullptr, 0));
    return def;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry telemetry(argc, argv);
    const Tick window = parseWindow(argc, argv, microseconds(40));
    const unsigned hostCores = std::thread::hardware_concurrency();

    bench::header("sharded-executor scaling (8-channel socket)");
    std::printf("host cores: %u, simulated window: %llu ns\n",
                hostCores,
                (unsigned long long)(window / nanoseconds(1)));
    std::printf("%-7s %12s %12s %9s %10s %10s\n", "shards",
                "serial-s", "parallel-s", "speedup", "GB/s",
                "Mev/s");

    struct Row
    {
        unsigned shards;
        RunResult serial;
        RunResult parallel;
    };
    std::vector<Row> rows;
    bool deterministic = true;
    for (unsigned shards : {1u, 2u, 4u}) {
        Row row;
        row.shards = shards;
        row.serial = runOnce(shards, false, window);
        row.parallel = runOnce(shards, true, window);
        // The acceptance bar that holds on any machine: both modes
        // simulated the same history, so the measured bandwidth —
        // a pure function of simulated time — matches exactly.
        if (row.serial.bandwidth != row.parallel.bandwidth) {
            deterministic = false;
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION at %u shards: "
                         "serial %.17g GB/s vs parallel %.17g GB/s\n",
                         shards, row.serial.bandwidth,
                         row.parallel.bandwidth);
        }
        std::printf("%-7u %12.3f %12.3f %8.2fx %10.1f %10.1f\n",
                    shards, row.serial.wallSec, row.parallel.wallSec,
                    row.serial.wallSec / row.parallel.wallSec,
                    row.parallel.bandwidth,
                    row.parallel.eventsPerSec / 1e6);
        rows.push_back(row);
    }
    bench::rule();
    std::printf("determinism: %s\n",
                deterministic ? "serial == parallel, bit for bit"
                              : "VIOLATED");

    stats::StatGroup root("parallelScaling");
    std::vector<std::unique_ptr<stats::Scalar>> scalars;
    auto mk = [&](std::string n, std::string d, double v) {
        auto s = std::make_unique<stats::Scalar>(&root, std::move(n),
                                                 std::move(d));
        *s = v;
        scalars.push_back(std::move(s));
    };
    mk("hostCores", "hardware threads on this runner", hostCores);
    mk("determinismOk",
       "1 when serial and parallel bandwidths matched exactly",
       deterministic ? 1 : 0);
    for (const Row &row : rows) {
        const std::string base =
            "shards" + std::to_string(row.shards);
        mk(base + "SerialWallSec",
           "serial-fallback wall seconds, " + base,
           row.serial.wallSec);
        mk(base + "ParallelWallSec",
           "threaded wall seconds, " + base, row.parallel.wallSec);
        mk(base + "SpeedupVsSerial",
           "serial wall / parallel wall, " + base,
           row.serial.wallSec / row.parallel.wallSec);
        mk(base + "ParallelEventsPerSec",
           "aggregate events/sec, threaded, " + base,
           row.parallel.eventsPerSec);
        mk(base + "BandwidthGBs",
           "measured aggregate bandwidth, " + base,
           row.parallel.bandwidth);
    }
    telemetry.capture("parallel-scaling", root);
    return deterministic ? 0 : 1;
}
