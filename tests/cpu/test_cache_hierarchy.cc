/** @file Cache hierarchy tests, including cached trace replay. */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "synth_trace.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

TEST(CacheHierarchy, SmallWorkingSetLivesInL1)
{
    stats::StatGroup root("root");
    CacheHierarchy caches("caches", &root, {});
    // 32 KiB working set inside the 64 KiB L1.
    Rng rng(1);
    for (int i = 0; i < 20000; ++i)
        caches.access(rng.below(32 * KiB / 128) * 128,
                      rng.chance(0.3));
    EXPECT_GT(caches.l1HitRate(), 0.95);
    EXPECT_LT(caches.memoryRate(), 0.05);
}

TEST(CacheHierarchy, WorkingSetsLandAtTheRightLevel)
{
    stats::StatGroup root("root");

    auto memory_rate = [&](std::uint64_t ws, const char *name) {
        CacheHierarchy caches(name, &root, {});
        // Warm: touch every line so cold misses don't pollute the
        // capacity measurement.
        for (Addr a = 0; a < ws; a += 128)
            caches.access(a, false);
        double refs0 = caches.hierarchyStats().references.value();
        double mem0 = caches.hierarchyStats().memoryAccesses.value();
        Rng rng(2);
        for (int i = 0; i < 30000; ++i)
            caches.access(rng.below(ws / 128) * 128, false);
        double refs =
            caches.hierarchyStats().references.value() - refs0;
        double mem =
            caches.hierarchyStats().memoryAccesses.value() - mem0;
        return mem / refs;
    };

    double tiny = memory_rate(32 * KiB, "c1");   // fits L1
    double mid = memory_rate(256 * KiB, "c2");   // fits L2
    double big = memory_rate(4 * MiB, "c3");     // fits L3
    double huge = memory_rate(64 * MiB, "c4");   // spills to memory

    EXPECT_LT(tiny, 0.05);
    EXPECT_LT(mid, 0.10);
    EXPECT_LT(big, 0.25);
    EXPECT_GT(huge, 0.70);
    EXPECT_LT(tiny, huge);
}

TEST(CacheHierarchy, DirtyVictimsGenerateWritebacks)
{
    stats::StatGroup root("root");
    CacheHierarchy::Params p;
    p.l1 = {8 * KiB, 2, picoseconds(750)};
    p.l2 = {16 * KiB, 2, nanoseconds(3)};
    p.l3 = {32 * KiB, 2, nanoseconds(9)};
    CacheHierarchy caches("caches", &root, p);

    // Dirty a large footprint so L3 keeps evicting dirty lines.
    int writebacks = 0;
    for (Addr a = 0; a < 1 * MiB; a += 128) {
        auto r = caches.access(a, true);
        if (r.writeback)
            ++writebacks;
    }
    EXPECT_GT(writebacks, 1000);
    EXPECT_EQ(caches.hierarchyStats().writebacks.value(),
              double(writebacks));
}

TEST(CacheHierarchy, HitDelaysOrdered)
{
    stats::StatGroup root("root");
    CacheHierarchy caches("caches", &root, {});
    auto miss = caches.access(0x10000, false);
    EXPECT_EQ(miss.servedBy, CacheHierarchy::Level::memory);
    auto hit1 = caches.access(0x10000, false);
    EXPECT_EQ(hit1.servedBy, CacheHierarchy::Level::l1);
    EXPECT_LT(hit1.delay, miss.delay + nanoseconds(20));
}

TEST(CachedReplay, CachesAbsorbSmallFootprints)
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};

    auto run = [&](Addr footprint, Tick &runtime,
                   std::uint64_t &hits) {
        Power8System sys(p);
        EXPECT_TRUE(sys.train());
        CacheHierarchy caches("caches", &sys, {});
        // Warm the hierarchy over the footprint first.
        for (Addr a = 0; a < footprint && a < 16 * MiB; a += 128)
            caches.access(a, false);
        auto trace =
            synthTrace(800, nanoseconds(10), footprint, 0.3, 0.5, 23);
        TraceReplayer::Params rp;
        rp.caches = &caches;
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
        runtime = result.runtime;
        hits = result.cacheHits;
    };

    Tick small_rt = 0, big_rt = 0;
    std::uint64_t small_hits = 0, big_hits = 0;
    run(64 * KiB, small_rt, small_hits);
    run(128 * MiB, big_rt, big_hits);

    // The hot trace mostly hits on-chip and finishes far sooner.
    EXPECT_GT(small_hits, 700u);
    EXPECT_LT(big_hits, 400u);
    EXPECT_GT(double(big_rt), double(small_rt) * 2.0);
}

} // namespace
