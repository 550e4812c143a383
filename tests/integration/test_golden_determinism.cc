/**
 * @file
 * Golden determinism anchors for the event core.
 *
 * The expected values below were captured from seeded
 * CrashRecoveryCampaign and RAS fault-campaign runs on the binary
 * heap event queue that preceded the ladder queue. The simulations
 * depend on every tie-break the queue makes, so bit-identical
 * counters here demonstrate that the ladder rewrite (wheel buckets,
 * overflow pulls, one-shot pooling, reschedule fast path) preserved
 * the (tick, priority, insertion order) contract end to end — not
 * just on synthetic op mixes but across the full model stack. If a
 * future change alters scheduling semantics deliberately, these
 * constants must be re-captured and the change called out in review.
 * The one-event-per-frame DMI channel changed a tie rule (frame
 * reception now fires at clock priority, ahead of other work at the
 * same edge) and every constant here held unchanged.
 */

#include <gtest/gtest.h>

#include <functional>

#include "cpu/system.hh"
#include "ras/fault_injector.hh"
#include "storage/crash_campaign.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::storage;

namespace
{

CrashRecoveryCampaign::Spec
crashSpec(std::uint64_t seed)
{
    CrashRecoveryCampaign::Spec s;
    s.seed = seed;
    s.powerCuts = 3;
    s.regionBlocks = 32;
    s.queueDepth = 4;
    s.longOutageEvery = 2;
    s.brownouts = 2;
    return s;
}

struct CrashGolden
{
    std::uint64_t writesSubmitted, writesCompleted, writesFailed;
    std::uint64_t intact, newer, unwritten;
    Tick endTick;
};

void
checkCrash(std::uint64_t seed, const CrashGolden &g)
{
    CrashRecoveryCampaign camp(crashSpec(seed));
    const auto r = camp.run();
    EXPECT_EQ(r.cuts, 3u);
    EXPECT_EQ(r.brownoutsInjected, 2u);
    EXPECT_EQ(r.recoveries, 3u);
    EXPECT_EQ(r.failedRecoveries, 0u);
    EXPECT_EQ(r.writesSubmitted, g.writesSubmitted);
    EXPECT_EQ(r.writesCompleted, g.writesCompleted);
    EXPECT_EQ(r.writesFailed, g.writesFailed);
    EXPECT_EQ(r.blocksFenced, g.writesCompleted);
    EXPECT_EQ(r.intact, g.intact);
    EXPECT_EQ(r.newer, g.newer);
    EXPECT_EQ(r.torn, 0u);
    EXPECT_EQ(r.stale, 0u);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.unwritten, g.unwritten);
    EXPECT_EQ(r.durabilityViolations, 0u);
    EXPECT_EQ(camp.system().eventq().curTick(), g.endTick);
}

TEST(GoldenDeterminism, CrashCampaignSeed7)
{
    checkCrash(7, CrashGolden{206, 194, 12, 94, 1, 1,
                              Tick(682972600000)});
}

TEST(GoldenDeterminism, CrashCampaignSeed42)
{
    checkCrash(42, CrashGolden{115, 103, 12, 38, 0, 58,
                               Tick(683563508000)});
}

struct RasGolden
{
    double timeouts, retries, dropped, corrupt, frameDrops, replays;
    Tick endTick;
};

void
checkRas(std::uint64_t seed, const RasGolden &g)
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    p.seed = seed;
    p.cardParams.mbs.cmdTimeout = microseconds(5);
    p.ras.watchdogEnabled = true;

    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    ras::FaultInjector inj("inj", sys.eventq(), sys.nestDomain(),
                           &sys, seed);
    inj.addMemory(&sys.dimm(0).image());
    inj.addMemory(&sys.dimm(1).image());
    inj.addChannel(&sys.downChannel());
    inj.addChannel(&sys.upChannel());
    inj.addMbs(&sys.card()->mbs());

    ras::FaultInjector::CampaignSpec spec;
    spec.start = sys.eventq().curTick();
    spec.duration = microseconds(60);
    spec.bitFlips = 12;
    spec.memBase = 4 * MiB;
    spec.memSize = 64 * KiB;
    spec.frameCorruptions = 4;
    spec.frameDrops = 2;
    spec.burstErrors = 1;
    spec.engineStalls = 2;
    inj.runCampaign(spec);

    // Closed-loop write-then-readback workload under fault fire.
    unsigned started = 0, completed = 0;
    std::uint64_t failed = 0, mismatches = 0;
    const unsigned kOps = 160;
    std::function<void()> issueNext = [&] {
        if (started >= kOps)
            return;
        unsigned op = started++;
        Addr a = Addr(op) * dmi::cacheLineSize;
        dmi::CacheLine line;
        for (unsigned j = 0; j < line.size(); ++j)
            line[j] = std::uint8_t(op * 31 + j * 7 + 5);
        sys.port().write(
            a, line, [&, a, line](const HostOpResult &wr) {
                if (wr.failed)
                    ++failed;
                sys.port().read(a, [&, line](const HostOpResult &rr) {
                    if (rr.failed)
                        ++failed;
                    if (rr.data != line)
                        ++mismatches;
                    ++completed;
                    issueNext();
                });
            });
    };
    for (int i = 0; i < 8; ++i)
        issueNext();
    while (completed < kOps && sys.eventq().step()) {
    }
    sys.runUntilIdle();
    Tick campaign_end = spec.start + spec.duration + microseconds(1);
    if (sys.eventq().curTick() < campaign_end)
        sys.runFor(campaign_end - sys.eventq().curTick());
    for (int i = 0; i < 48; ++i)
        sys.port().read(Addr(i) * dmi::cacheLineSize,
                        [](const HostOpResult &) {});
    sys.runUntilIdle();

    EXPECT_EQ(inj.history().size(), 21u);
    EXPECT_EQ(completed, kOps);
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(mismatches, 0u);
    const auto &mbs = sys.card()->mbs().mbsStats();
    const auto &down = sys.downChannel().channelStats();
    const auto &up = sys.upChannel().channelStats();
    EXPECT_EQ(mbs.cmdTimeouts.value(), g.timeouts);
    EXPECT_EQ(mbs.cmdRetries.value(), g.retries);
    EXPECT_EQ(mbs.droppedCompletions.value(), g.dropped);
    EXPECT_EQ(down.framesCorrupted.value() + up.framesCorrupted.value(),
              g.corrupt);
    EXPECT_EQ(down.framesDropped.value() + up.framesDropped.value(),
              g.frameDrops);
    EXPECT_EQ(sys.hostLink().linkStats().replaysTriggered.value()
                  + sys.card()->mbi().linkStats().replaysTriggered.value(),
              g.replays);
    EXPECT_EQ(sys.eventq().curTick(), g.endTick);
}

TEST(GoldenDeterminism, RasCampaignSeed20260806)
{
    checkRas(20260806,
             RasGolden{2, 2, 2, 4, 2, 2, Tick(66952000)});
}

TEST(GoldenDeterminism, RasCampaignSeed424242)
{
    checkRas(424242,
             RasGolden{2, 2, 2, 4, 2, 1, Tick(66940000)});
}

} // namespace
