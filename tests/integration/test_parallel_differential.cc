/**
 * @file
 * The parallel-engine differential harness: the N-thread sharded run
 * must be *bit-identical* to the serial fallback, on the full model
 * stack, under fault injection.
 *
 * Two idioms are proven separately:
 *
 *  - Partitioned system: a mixed ConTutto/CDIMM socket sharded one
 *    channel per shard, soaked with per-channel fault campaigns plus
 *    a cross-shard rotating workload. Serial and parallel executions
 *    must produce byte-identical stats-JSON trees, identical FSP
 *    error-log contents, and the same final tick — per seed, at 1,
 *    2 and 4 shards.
 *
 *  - Task farm: seeded crash-recovery campaigns distributed over
 *    worker threads via ShardedExecutor::runTasks. Every seed's
 *    Result must be identical whether the farm ran on one thread or
 *    four.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "cpu/multi_slot.hh"
#include "ras/fault_injector.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "storage/crash_campaign.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

constexpr unsigned kChannelOps = 48; ///< per-channel closed loop.
constexpr unsigned kRotateOps = 32;  ///< cross-shard rotating loop.
constexpr Addr kFaultBase = 2 * MiB;
constexpr std::uint64_t kFaultSize = 32 * KiB;

/** Everything one campaign run produces; compared byte for byte. */
struct DiffResult
{
    std::string statsJson;
    std::vector<std::string> errorLogs;
    Tick endTick = 0;
    std::uint64_t faultsApplied = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t completed = 0;

    bool
    operator==(const DiffResult &o) const
    {
        return statsJson == o.statsJson && errorLogs == o.errorLogs
            && endTick == o.endTick
            && faultsApplied == o.faultsApplied
            && mismatches == o.mismatches && completed == o.completed;
    }
};

std::string
serializeLog(const firmware::ErrorLog &log)
{
    std::ostringstream os;
    for (const auto &e : log.entries())
        os << e.when << '|' << e.component << '|'
           << int(e.severity) << '|' << e.message << '\n';
    os << "overflow=" << log.overflowCount() << '\n';
    return os.str();
}

dmi::CacheLine
patternFor(unsigned op)
{
    dmi::CacheLine line;
    for (unsigned j = 0; j < line.size(); ++j)
        line[j] = std::uint8_t(op * 29 + j * 11 + 3);
    return line;
}

/** Mixed socket: ConTutto in 0 and 2, CDIMMs in 4 and 5. */
MultiSlotSystem::Params
diffSocket(std::uint64_t seed, unsigned shards, bool parallel)
{
    MultiSlotSystem::Params p;
    for (unsigned s = 0; s < MultiSlotSystem::numSlots; ++s)
        p.slots[s].kind = SlotKind::empty;
    for (unsigned s : {0u, 2u}) {
        p.slots[s].kind = SlotKind::contutto;
        p.slots[s].channel.cardParams.mbs.cmdTimeout =
            microseconds(5);
    }
    for (unsigned s : {4u, 5u})
        p.slots[s].kind = SlotKind::cdimm;
    for (unsigned s : {0u, 2u, 4u, 5u}) {
        p.slots[s].channel.seed = seed;
        p.slots[s].channel.dimms = {
            DimmSpec{mem::MemTech::dram, 64 * MiB, {}, {}},
            DimmSpec{mem::MemTech::dram, 64 * MiB, {}, {}}};
    }
    p.shards = shards;
    p.parallelExec = parallel;
    return p;
}

/**
 * One full soak: train, inject per-channel fault campaigns, run a
 * shard-local closed loop on every channel plus a rotating loop
 * whose every hop crosses shards, drain, and snapshot everything
 * observable.
 */
DiffResult
runShardedSoak(std::uint64_t seed, unsigned shards, bool parallel)
{
    MultiSlotSystem socket(diffSocket(seed, shards, parallel));
    EXPECT_TRUE(socket.trainAll());
    const unsigned nch = socket.populatedChannels();

    // One injector per channel, living on that channel's shard
    // queue so every fault application is shard-local.
    std::vector<std::unique_ptr<ras::FaultInjector>> injectors;
    Tick campaignEnd = 0;
    for (unsigned c = 0; c < nch; ++c) {
        MemoryChannel &ch = socket.channel(c);
        auto inj = std::make_unique<ras::FaultInjector>(
            "inj" + std::to_string(c), socket.channelQueue(c),
            socket.clocks().nest, &socket, seed + c * 7919);
        inj->addMemory(&ch.dimm(0).image());
        inj->addMemory(&ch.dimm(1).image());
        inj->addChannel(&ch.downChannel());
        inj->addChannel(&ch.upChannel());
        const bool contutto = ch.card() != nullptr;
        if (contutto)
            inj->addMbs(&ch.card()->mbs());

        ras::FaultInjector::CampaignSpec spec;
        spec.start = socket.channelQueue(c).curTick();
        spec.duration = microseconds(60);
        spec.bitFlips = 8;
        spec.memBase = kFaultBase;
        spec.memSize = kFaultSize;
        spec.frameCorruptions = 3;
        spec.frameDrops = 2;
        spec.burstErrors = 1;
        spec.engineStalls = contutto ? 1 : 0;
        auto plan = inj->runCampaign(spec);
        EXPECT_FALSE(plan.empty());
        campaignEnd = std::max(campaignEnd,
                               spec.start + spec.duration
                                   + microseconds(1));
        injectors.push_back(std::move(inj));
    }

    DiffResult res;

    // Shard-local closed loops: write a line, read it back,
    // verify, repeat. Addresses stride by the channel count so a
    // loop never leaves its channel.
    std::vector<unsigned> started(nch, 0), completed(nch, 0);
    std::vector<std::uint64_t> mism(nch, 0);
    std::vector<std::function<void()>> loops(nch);
    for (unsigned c = 0; c < nch; ++c) {
        loops[c] = [&, c] {
            if (started[c] >= kChannelOps)
                return;
            unsigned op = started[c]++;
            Addr a = Addr(op * nch + c) * dmi::cacheLineSize;
            dmi::CacheLine line = patternFor(op * 5 + c);
            socket.write(a, line, [&, a, op, c](const HostOpResult &) {
                socket.read(a, [&, op, c](const HostOpResult &r) {
                    if (r.data != patternFor(op * 5 + c))
                        ++mism[c];
                    ++completed[c];
                    loops[c]();
                });
            });
        };
        for (int k = 0; k < 2; ++k)
            loops[c]();
    }

    // The rotating loop: consecutive lines interleave across the
    // channels, so every next op is issued from a foreign shard's
    // completion context and crosses via the mailboxes.
    unsigned rotStarted = 0, rotCompleted = 0;
    std::function<void()> rotate = [&] {
        if (rotStarted >= kRotateOps)
            return;
        unsigned op = rotStarted++;
        Addr a = Addr(op) * dmi::cacheLineSize + 16 * MiB;
        dmi::CacheLine line = patternFor(1000 + op);
        socket.write(a, line, [&, a, op](const HostOpResult &) {
            socket.read(a, [&, op](const HostOpResult &r) {
                if (r.data != patternFor(1000 + op))
                    ++res.mismatches;
                ++rotCompleted;
                rotate();
            });
        });
    };
    rotate();

    EXPECT_TRUE(socket.runUntilIdle(milliseconds(5)));
    for (unsigned c = 0; c < nch; ++c) {
        EXPECT_EQ(completed[c], kChannelOps) << "channel " << c;
        res.mismatches += mism[c];
        res.completed += completed[c];
    }
    EXPECT_EQ(rotCompleted, kRotateOps);
    res.completed += rotCompleted;

    // Let every campaign window elapse so all faults have landed,
    // then drain reads to consume any still-armed frame faults.
    socket.executor()->run(campaignEnd);
    for (unsigned c = 0; c < nch; ++c)
        EXPECT_EQ(injectors[c]->history().size(),
                  socket.channel(c).card() ? 15u : 14u)
            << "channel " << c;
    std::vector<std::function<void()>> drains(nch);
    std::vector<unsigned> drained(nch, 0);
    for (unsigned c = 0; c < nch; ++c) {
        drains[c] = [&, c] {
            if (drained[c] >= 12)
                return;
            Addr a = Addr(drained[c] * nch + c) * dmi::cacheLineSize;
            ++drained[c];
            socket.read(a,
                        [&, c](const HostOpResult &) { drains[c](); });
        };
        drains[c]();
    }
    EXPECT_TRUE(socket.runUntilIdle(milliseconds(5)));

    for (unsigned c = 0; c < nch; ++c)
        res.faultsApplied += injectors[c]->history().size();

    // The observable universe: the socket's entire stats tree (all
    // channels, per-shard queues, the executor, the injectors), the
    // FSP logs, and where simulated time ended up.
    std::ostringstream os;
    stats::toJson(socket, os);
    res.statsJson = os.str();
    // Canonical by construction: a strict re-parse dumps it back
    // byte for byte.
    EXPECT_EQ(Json::parse(res.statsJson).dump(), res.statsJson);
    for (unsigned c = 0; c < nch; ++c)
        res.errorLogs.push_back(
            serializeLog(socket.channel(c).errorLog()));
    res.endTick = socket.curTick();
    return res;
}

class ParallelDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ParallelDifferential, ShardedSoakSerialVsParallelBitIdentical)
{
    const std::uint64_t seed = GetParam();
    // One shard is every default socket's path; it gets no worker
    // threads, but it must agree with itself all the same.
    for (unsigned shards : {1u, 2u, 4u}) {
        DiffResult serial = runShardedSoak(seed, shards, false);
        DiffResult parallel = runShardedSoak(seed, shards, true);

        // Identical, byte for byte — stats tree first because its
        // diff localizes a divergence to one component.
        EXPECT_EQ(serial.statsJson, parallel.statsJson)
            << "seed " << seed << " shards " << shards;
        ASSERT_EQ(serial.errorLogs.size(), parallel.errorLogs.size());
        for (std::size_t c = 0; c < serial.errorLogs.size(); ++c)
            EXPECT_EQ(serial.errorLogs[c], parallel.errorLogs[c])
                << "seed " << seed << " shards " << shards
                << " channel " << c;
        EXPECT_EQ(serial.endTick, parallel.endTick);
        EXPECT_TRUE(serial == parallel);

        // And the run itself was healthy: everything completed,
        // every injected fault survived as corrected, not as data
        // corruption.
        EXPECT_EQ(serial.mismatches, 0u);
        EXPECT_EQ(serial.completed,
                  4 * kChannelOps + kRotateOps);
        EXPECT_EQ(serial.faultsApplied, 2 * 15u + 2 * 14u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferential,
                         ::testing::Values(20260806ULL, 424242ULL));

TEST(ParallelDifferential, CrashCampaignFarmIsThreadCountInvariant)
{
    using storage::CrashRecoveryCampaign;
    const std::vector<std::uint64_t> seeds{7, 11, 42, 1234};

    auto farm = [&](unsigned shards,
                    sim::ShardedExecutor::Mode mode) {
        std::vector<CrashRecoveryCampaign::Result> results(
            seeds.size());
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < seeds.size(); ++i)
            tasks.push_back([&results, &seeds, i] {
                CrashRecoveryCampaign::Spec s;
                s.seed = seeds[i];
                s.powerCuts = 2;
                s.regionBlocks = 24;
                s.queueDepth = 3;
                s.longOutageEvery = 2;
                s.brownouts = 1;
                s.dimmCapacity = 32 * MiB;
                results[i] = CrashRecoveryCampaign(s).run();
            });
        sim::ShardedExecutor::runTasks(shards, mode, tasks);
        return results;
    };

    auto serial = farm(1, sim::ShardedExecutor::Mode::serial);
    auto parallel = farm(4, sim::ShardedExecutor::Mode::parallel);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i] == parallel[i])
            << "seed " << seeds[i]
            << ": farm result depends on thread count";
        EXPECT_EQ(serial[i].durabilityViolations, 0u);
        EXPECT_EQ(serial[i].recoveries, serial[i].cuts);
        EXPECT_GT(serial[i].writesCompleted, 0u);
    }
}

} // namespace
