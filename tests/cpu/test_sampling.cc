/**
 * @file
 * Sampled execution through the real drivers: determinism (same
 * seed, byte-identical stats; serial vs task farm), error bounds
 * against full detail, and functional state parity.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/core_model.hh"
#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "synth_trace.hh"
#include "sim/parallel.hh"
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

WorkloadProfile
missHeavy()
{
    WorkloadProfile prof;
    prof.name = "missHeavy";
    prof.baseCpi = 1.0;
    prof.missesPerKiloInstr = 30;
    prof.chaseFraction = 0.05;
    prof.streamFraction = 0.2;
    prof.mlp = 8;
    prof.workingSet = 64 * MiB;
    return prof;
}

sim::SamplingConfig
testSampling()
{
    sim::SamplingConfig cfg;
    cfg.enabled = true;
    cfg.warmupUnits = 16;
    cfg.windowUnits = 64;
    cfg.periodUnits = 1024;
    return cfg;
}

/** One sampled CoreModel run on a fresh system; returns the full
 *  stats-JSON of the system (sampler stats included). */
std::string
sampledRunJson(const sim::SamplingConfig &cfg, std::uint64_t seed,
               CoreModel::Result *out = nullptr)
{
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    ClockDomain core("core", 250);
    CoreModel::Params cp;
    cp.instructions = 200000;
    cp.seed = seed;
    if (cfg.enabled)
        cp.sampler = &sys.enableSampling(cfg, seed);
    CoreModel model("core", sys.eventq(), core, &sys, missHeavy(),
                    cp, sys.port());
    bool finished = false;
    CoreModel::Result result;
    model.start([&](const CoreModel::Result &r) {
        result = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    if (out)
        *out = result;
    std::ostringstream os;
    stats::toJson(sys, os);
    return os.str();
}

TEST(SampledCore, SameSeedByteIdenticalStats)
{
    CoreModel::Result a, b;
    std::string ja = sampledRunJson(testSampling(), 7, &a);
    std::string jb = sampledRunJson(testSampling(), 7, &b);
    EXPECT_EQ(ja, jb);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.misses, b.misses);

    // A different seed moves the run (schedule and addresses).
    std::string jc = sampledRunJson(testSampling(), 8);
    EXPECT_NE(ja, jc);
}

TEST(SampledCore, SerialAndTaskFarmAreByteIdentical)
{
    // Four sampled runs as a task farm across 2 shards, then the
    // same four serially: the stats JSON must match byte for byte.
    const std::uint64_t seeds[] = {1, 2, 3, 4};
    auto farm = [&](sim::ShardedExecutor::Mode mode) {
        std::vector<std::string> out(4);
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 4; ++i)
            tasks.push_back([&out, &seeds, i] {
                out[i] = sampledRunJson(testSampling(), seeds[i]);
            });
        sim::ShardedExecutor::runTasks(2, mode, tasks);
        return out;
    };
    auto parallel = farm(sim::ShardedExecutor::Mode::parallel);
    auto serial = farm(sim::ShardedExecutor::Mode::serial);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "seed " << seeds[i];
}

TEST(SampledCore, DisabledSamplerMatchesNullSampler)
{
    // A present-but-disabled controller must not perturb the run:
    // the RNG draw order is identical, so runtime and misses are.
    CoreModel::Result with, without;
    sim::SamplingConfig off; // enabled = false
    sampledRunJson(off, 11, &without);

    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    sim::SamplingController ctl(off, 11);
    ClockDomain core("core", 250);
    CoreModel::Params cp;
    cp.instructions = 200000;
    cp.seed = 11;
    cp.sampler = &ctl;
    CoreModel model("core", sys.eventq(), core, &sys, missHeavy(),
                    cp, sys.port());
    bool finished = false;
    model.start([&](const CoreModel::Result &r) {
        with = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    ASSERT_TRUE(finished);
    EXPECT_EQ(with.runtime, without.runtime);
    EXPECT_EQ(with.misses, without.misses);
}

TEST(SampledCore, ErrorBoundAgainstFullDetail)
{
    // Calibration-length workload, both regimes, same seed: the
    // sampled stitched runtime must sit within 5% of the detailed
    // truth, and the reported 95% CI around the statistical
    // estimate must cover it. Deterministic per seed, so this is a
    // regression gate, not a flaky statistical assertion.
    using workloads::runSpecProfile;
    using workloads::specCint2006;
    const auto profiles = specCint2006();
    const WorkloadProfile *mcf = nullptr;
    for (const auto &p : profiles)
        if (p.name == "429.mcf")
            mcf = &p;
    ASSERT_NE(mcf, nullptr);

    const std::uint64_t instructions = 400000;
    Power8System detail(smallCard());
    ASSERT_TRUE(detail.train());
    auto d = runSpecProfile(detail, *mcf, instructions);

    Power8System sampled(smallCard());
    ASSERT_TRUE(sampled.train());
    auto s = runSpecProfile(sampled, *mcf, instructions,
                            testSampling());

    ASSERT_GT(d.runtimeSeconds, 0.0);
    double relErr =
        std::abs(s.runtimeSeconds - d.runtimeSeconds)
        / d.runtimeSeconds;
    EXPECT_LT(relErr, 0.05) << "sampled " << s.runtimeSeconds
                            << " detail " << d.runtimeSeconds;

    ASSERT_TRUE(s.sampling.enabled);
    EXPECT_GE(s.sampling.windows, 2u);
    double est = s.sampling.estimatedRuntimeSec();
    double ciHalf =
        ticksToSeconds(Tick(s.sampling.ciHalfWidthTicks));
    EXPECT_LE(std::abs(est - d.runtimeSeconds), ciHalf)
        << "estimate " << est << " ± " << ciHalf << " vs detail "
        << d.runtimeSeconds;

    // And it actually fast-forwarded most of the work.
    EXPECT_GT(s.sampling.fastForwardUnits,
              s.sampling.detailedUnits);
}

TEST(SampledReplay, CacheContentsStayExact)
{
    // The cache hierarchy is probed functionally in both regimes:
    // hit/miss/writeback counts must be identical detailed vs
    // sampled even though most channel trips are fast-forwarded.
    auto trace = synthTrace(6000, nanoseconds(10),
                            32 * MiB, 0.3, 0.1, 21);

    auto run = [&](bool sampledMode) {
        Power8System sys(smallCard());
        EXPECT_TRUE(sys.train());
        CacheHierarchy caches("caches", &sys, {});
        TraceReplayer::Params rp;
        rp.caches = &caches;
        if (sampledMode) {
            sim::SamplingConfig cfg = testSampling();
            cfg.warmupUnits = 8;
            cfg.windowUnits = 32;
            cfg.periodUnits = 256;
            rp.sampler = &sys.enableSampling(cfg, 5);
        }
        TraceReplayer replayer("replay", sys.eventq(),
                               sys.nestDomain(), &sys, rp,
                               sys.port());
        bool finished = false;
        TraceReplayer::Result result;
        replayer.start(*trace, [&](const TraceReplayer::Result &r) {
            result = r;
            finished = true;
        });
        while (!finished && sys.eventq().step()) {
        }
        EXPECT_TRUE(finished);
        return result;
    };

    auto detailed = run(false);
    auto sampled = run(true);
    EXPECT_EQ(detailed.cacheHits, sampled.cacheHits);
    EXPECT_EQ(detailed.writebacks, sampled.writebacks);
    EXPECT_EQ(detailed.reads, sampled.reads);
    EXPECT_EQ(detailed.writes, sampled.writes);
    EXPECT_EQ(detailed.computeTime, sampled.computeTime);
}

TEST(SampledReplay, SameSeedSameRuntime)
{
    auto trace = synthTrace(4000, nanoseconds(10),
                            32 * MiB, 0.3, 0.1, 33);
    auto run = [&] {
        Power8System sys(smallCard());
        EXPECT_TRUE(sys.train());
        TraceReplayer::Params rp;
        sim::SamplingConfig cfg;
        cfg.enabled = true;
        cfg.warmupUnits = 8;
        cfg.windowUnits = 32;
        cfg.periodUnits = 256;
        rp.sampler = &sys.enableSampling(cfg, 17);
        TraceReplayer replayer("replay", sys.eventq(),
                               sys.nestDomain(), &sys, rp,
                               sys.port());
        bool finished = false;
        TraceReplayer::Result result;
        replayer.start(*trace, [&](const TraceReplayer::Result &r) {
            result = r;
            finished = true;
        });
        while (!finished && sys.eventq().step()) {
        }
        EXPECT_TRUE(finished);
        return result.runtime;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
