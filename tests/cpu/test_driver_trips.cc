/**
 * @file
 * Pins the channel trips of every workload driver, detailed and
 * sampled, on a small ConTutto system with fixed seeds: CoreModel on
 * 429.mcf, the window-mode TraceReplayer behind a cache hierarchy
 * (so hits and writebacks occur), and TimedTraceReplayer on a
 * generated qsort trace.
 *
 * Same-seed equality and error bounds cannot see a fast-forward
 * charge that moved by a constant or a trip that lost its
 * processor-side hop; these exact figures can. A trace of bursts
 * and gaps pins the timed replayer's one completion event for its
 * fast-forwarded trips (cpu/channel_trip.hh), and a last test
 * checks that fast-forwarded stores still reach the memory image.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "cpu/cache_hierarchy.hh"
#include "cpu/core_model.hh"
#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "synth_trace.hh"
#include "trace/generate.hh"
#include "trace/writer.hh"
#include "workloads/spec.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

Power8System::Params
smallCard()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

sim::SamplingConfig
pinSampling()
{
    sim::SamplingConfig cfg;
    cfg.enabled = true;
    cfg.warmupUnits = 16;
    cfg.windowUnits = 64;
    cfg.periodUnits = 1024;
    return cfg;
}

/** What one driver run is pinned on. */
struct Pin
{
    Tick runtime = 0;
    /** Reads and writes (CoreModel: misses and 0). */
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Trips that travelled the real channel. */
    std::uint64_t detailed = 0;
    std::uint64_t readLatencyCount = 0;
    double readLatencyMean = 0;
    /** Sampler report (zero on detailed runs). */
    std::uint64_t windows = 0;
    std::uint64_t detailedUnits = 0;
    std::uint64_t fastForwardUnits = 0;
    double estimatedRuntimeTicks = 0;
};

void
fillPort(Power8System &sys, Pin &pin, sim::SamplingController *s)
{
    const auto &ps = sys.port().portStats();
    pin.readLatencyCount = ps.readLatency.count();
    pin.readLatencyMean = ps.readLatency.mean();
    if (!s)
        return;
    const sim::SamplingReport &rep = s->report();
    pin.windows = rep.windows;
    pin.detailedUnits = rep.detailedUnits;
    pin.fastForwardUnits = rep.fastForwardUnits;
    pin.estimatedRuntimeTicks = rep.estimatedRuntimeTicks;
}

void
expectPin(const Pin &got, const Pin &want)
{
    EXPECT_EQ(got.runtime, want.runtime);
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.detailed, want.detailed);
    EXPECT_EQ(got.readLatencyCount, want.readLatencyCount);
    EXPECT_EQ(got.readLatencyMean, want.readLatencyMean);
    EXPECT_EQ(got.windows, want.windows);
    EXPECT_EQ(got.detailedUnits, want.detailedUnits);
    EXPECT_EQ(got.fastForwardUnits, want.fastForwardUnits);
    EXPECT_EQ(got.estimatedRuntimeTicks, want.estimatedRuntimeTicks);
}

/** Step @p sys until the run @p start began has finished. */
template <typename Result, typename Start>
Result
runToEnd(Power8System &sys, Start start)
{
    bool finished = false;
    Result result;
    start([&](const Result &r) {
        result = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    return result;
}

Pin
coreRun(bool sampled)
{
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    WorkloadProfile mcf;
    for (const auto &p : workloads::specCint2006())
        if (p.name == "429.mcf")
            mcf = p;
    ClockDomain core("core", 250);
    CoreModel::Params cp;
    cp.instructions = sampled ? 400000 : 100000;
    cp.seed = 5;
    if (sampled)
        cp.sampler = &sys.enableSampling(pinSampling(), 5);
    CoreModel model("core", sys.eventq(), core, &sys, mcf, cp,
                    sys.port());
    auto r = runToEnd<CoreModel::Result>(
        sys, [&](auto done) { model.start(done); });
    const auto &ps = sys.port().portStats();
    Pin pin;
    pin.runtime = r.runtime;
    pin.reads = r.misses;
    pin.detailed = std::uint64_t(ps.reads.value() + ps.writes.value());
    fillPort(sys, pin, cp.sampler);
    return pin;
}

Pin
windowRun(bool sampled)
{
    auto bin = synthTrace(20000, nanoseconds(20), 4 * MiB, 0.4, 0.1,
                          11);
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    CacheHierarchy::Params hp;
    hp.l1.capacity = 8 * KiB;
    hp.l2.capacity = 64 * KiB;
    hp.l3.capacity = 1 * MiB;
    CacheHierarchy caches("caches", &sys, hp);
    TraceReplayer::Params rp;
    rp.caches = &caches;
    if (sampled)
        rp.sampler = &sys.enableSampling(pinSampling(), 9);
    TraceReplayer replayer("replay", sys.eventq(), sys.nestDomain(),
                           &sys, rp, sys.port());
    auto r = runToEnd<TraceReplayer::Result>(
        sys, [&](auto done) { replayer.start(*bin, done); });
    EXPECT_GT(r.cacheHits, 0u);
    EXPECT_GT(r.writebacks, 0u);
    const auto &ps = sys.port().portStats();
    Pin pin;
    pin.runtime = r.runtime;
    pin.reads = r.reads;
    pin.writes = r.writes;
    pin.detailed = std::uint64_t(ps.reads.value() + ps.writes.value());
    fillPort(sys, pin, rp.sampler);
    return pin;
}

Pin
timedRun(bool sampled)
{
    const std::string path = ::testing::TempDir() + "trip_pin.bin";
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = 20000;
    spec.seed = 13;
    spec.meanDelay = nanoseconds(200);
    trace::generate(spec, path);
    trace::MappedTrace bin(path);
    std::filesystem::remove(path);

    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    TimedTraceReplayer::Params tp;
    tp.nestOverhead = sys.params().nestOverhead;
    if (sampled)
        tp.sampler = &sys.enableSampling(pinSampling(), 3);
    TimedTraceReplayer rep("replay", sys.eventq(), sys.nestDomain(),
                           &sys, tp, sys.port());
    auto r = runToEnd<TimedTraceReplayer::Result>(
        sys, [&](auto done) { rep.start(bin, done); });
    EXPECT_EQ(r.replayed, 20000u);
    Pin pin;
    pin.runtime = r.runtime;
    pin.reads = r.reads;
    pin.writes = r.writes;
    pin.detailed = r.detailed;
    fillPort(sys, pin, tp.sampler);
    return pin;
}

// Pin: {runtime, reads, writes, detailed, readLatency count and
// mean, windows, detailedUnits, fastForwardUnits,
// estimatedRuntimeTicks}.

TEST(DriverTrips, CoreModelOnMcf)
{
    expectPin(coreRun(false), {171100000, 3271, 0, 3271, 2602,
                               375.6490680245962, 0, 0, 0, 0});
    expectPin(coreRun(true),
              {683849709, 13045, 0, 960, 766, 376.60802741514345, 12,
               960, 12085, 714516961.09376276});
}

TEST(DriverTrips, WindowReplayBehindCaches)
{
    expectPin(windowRun(false), {1611004000, 12105, 7895, 19575, 9774,
                                 388.2993976877425, 0, 0, 0, 0});
    expectPin(windowRun(true),
              {1573603391, 12105, 7895, 1600, 798, 386.0695639097745,
               20, 1600, 17975, 1504721174.9534187});
}

TEST(DriverTrips, TimedReplayOfQsortTrace)
{
    expectPin(timedRun(false), {4007224000, 13311, 6689, 20000, 13311,
                                361.15107550146416, 0, 0, 0, 0});
    expectPin(timedRun(true),
              {4007231498, 13311, 6689, 1600, 1039, 360.06112897016413,
               20, 1600, 18400, 3996853687.5});
}

/**
 * A timed trace of groups: a burst of records at one tick, records
 * closer together than a fast-forwarded trip's charge (about
 * 400 ns), then a gap longer than it. Fast-forwarded trips of one
 * group share the open-loop tail, which moves with each of them and
 * fires in each gap; the trace ends on closely spaced records, so a
 * run that ends anywhere but the last completion shows in the
 * runtime.
 */
std::unique_ptr<trace::MappedTrace>
burstTrace()
{
    const std::string path = ::testing::TempDir() + "trip_bursts.bin";
    Rng rng(17);
    trace::TraceWriter writer(path);
    for (int group = 0; group < 600; ++group) {
        for (int i = 0; i < 8; ++i) {
            trace::Record rec;
            rec.tickDelta = i == 0   ? nanoseconds(3000)
                            : i < 4 ? 0
                                     : nanoseconds(40 + 20 * i);
            rec.addr = rng.below(32768) * 128;
            rec.op = trace::makeOp(rng.chance(0.3), false);
            writer.append(rec);
        }
    }
    writer.close();
    auto bin = std::make_unique<trace::MappedTrace>(path);
    std::filesystem::remove(path);
    return bin;
}

TEST(DriverTrips, TimedReplayFoldsFastForwardedTrips)
{
    auto bin = burstTrace();
    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    TimedTraceReplayer::Params tp;
    tp.nestOverhead = sys.params().nestOverhead;
    tp.sampler = &sys.enableSampling(pinSampling(), 3);
    TimedTraceReplayer rep("replay", sys.eventq(), sys.nestDomain(),
                           &sys, tp, sys.port());
    const std::uint64_t events0 = sys.eventq().eventsProcessed();
    auto r = runToEnd<TimedTraceReplayer::Result>(
        sys, [&](auto done) { rep.start(*bin, done); });
    ASSERT_EQ(r.replayed, 4800u);
    Pin pin;
    pin.runtime = r.runtime;
    pin.reads = r.reads;
    pin.writes = r.writes;
    pin.detailed = r.detailed;
    fillPort(sys, pin, tp.sampler);
    expectPin(pin, {2160246643, 3340, 1460, 400, 281, 369.95017793594309,
                    5, 400, 4400, 2160000000});
    // One one-shot per fast-forwarded trip took 18996 events.
    EXPECT_EQ(sys.eventq().eventsProcessed() - events0, 15149u);
}

TEST(DriverTrips, FastForwardedStoresReachMemory)
{
    // Every driver stores zero lines, and zero stores into pages
    // nobody touched are dropped; so fill the footprint with a
    // nonzero pattern first, or a lost fast-forwarded store would
    // read back as the zero it should have written.
    const Addr footprint = 1 * MiB;
    auto bin = synthTrace(20000, nanoseconds(20), footprint, 0.5, 0.0,
                          21);
    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    std::vector<std::uint8_t> pattern(footprint);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(0x5a + i % 251);
    sys.functionalWrite(0, footprint, pattern.data());

    TimedTraceReplayer::Params tp;
    tp.nestOverhead = sys.params().nestOverhead;
    tp.sampler = &sys.enableSampling(pinSampling(), 7);
    TimedTraceReplayer rep("replay", sys.eventq(), sys.nestDomain(),
                           &sys, tp, sys.port());
    auto r = runToEnd<TimedTraceReplayer::Result>(
        sys, [&](auto done) { rep.start(*bin, done); });
    ASSERT_EQ(r.replayed, 20000u);
    EXPECT_GT(r.detailed, 0u);
    EXPECT_LT(r.detailed, r.replayed); // some stores fast-forwarded

    std::vector<bool> written(footprint / dmi::cacheLineSize);
    for (std::uint64_t i = 0; i < bin->recordCount(); ++i) {
        trace::Record rec = bin->record(i);
        if (trace::opIsWrite(rec.op))
            written[rec.addr / dmi::cacheLineSize] = true;
    }
    // Count the lines that read back wrong rather than failing per
    // line: a dropped store would otherwise flood the log.
    std::size_t stored = 0, untouched = 0, lost = 0, clobbered = 0;
    for (std::size_t l = 0; l < written.size(); ++l) {
        dmi::CacheLine line;
        sys.functionalRead(Addr(l) * dmi::cacheLineSize,
                           dmi::cacheLineSize, line.data());
        if (written[l]) {
            ++stored;
            lost += line != dmi::CacheLine{};
        } else {
            ++untouched;
            clobbered += std::memcmp(line.data(),
                                     &pattern[l * dmi::cacheLineSize],
                                     dmi::cacheLineSize)
                         != 0;
        }
    }
    EXPECT_EQ(lost, 0u) << "of " << stored << " stored lines";
    EXPECT_EQ(clobbered, 0u) << "of " << untouched << " other lines";
    EXPECT_GT(stored, 0u);
    EXPECT_GT(untouched, 0u);
}

} // namespace
