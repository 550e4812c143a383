/** @file Multi-slot socket tests: plug rules, interleave, scaling. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "cpu/multi_slot.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

ChannelParams
smallChannel(std::uint64_t dimm = 64 * MiB)
{
    ChannelParams p;
    p.dimms = {DimmSpec{mem::MemTech::dram, dimm, {}, {}},
               DimmSpec{mem::MemTech::dram, dimm, {}, {}}};
    return p;
}

MultiSlotSystem::Params
allCdimm(unsigned n = 8)
{
    MultiSlotSystem::Params p;
    for (unsigned s = 0; s < MultiSlotSystem::numSlots; ++s) {
        p.slots[s].kind =
            s < n ? SlotKind::cdimm : SlotKind::empty;
        p.slots[s].channel = smallChannel();
    }
    return p;
}

TEST(PlugRules, ContuttoOnlyInEvenSlots)
{
    auto p = allCdimm(8);
    p.slots[3].kind = SlotKind::contutto;
    auto v = MultiSlotSystem::validate(p);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("even"), std::string::npos);
}

TEST(PlugRules, ContuttoBlocksAdjacentSlot)
{
    auto p = allCdimm(8);
    p.slots[2].kind = SlotKind::contutto;
    // slot 3 still holds a CDIMM: violates the blocking rule.
    auto v = MultiSlotSystem::validate(p);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("blocks"), std::string::npos);

    p.slots[3].kind = SlotKind::empty;
    EXPECT_TRUE(MultiSlotSystem::validate(p).ok);
}

TEST(PlugRules, PaperConfigurationsAreLegal)
{
    // One ConTutto + six CDIMMs (paper §3.1).
    auto one = allCdimm(8);
    one.slots[0].kind = SlotKind::contutto;
    one.slots[1].kind = SlotKind::empty;
    EXPECT_TRUE(MultiSlotSystem::validate(one).ok);

    // Two ConTutto + four CDIMMs.
    auto two = allCdimm(8);
    two.slots[0].kind = SlotKind::contutto;
    two.slots[1].kind = SlotKind::empty;
    two.slots[2].kind = SlotKind::contutto;
    two.slots[3].kind = SlotKind::empty;
    EXPECT_TRUE(MultiSlotSystem::validate(two).ok);

    // The validator is also what the constructor enforces.
    auto bad = allCdimm(8);
    bad.slots[1].kind = SlotKind::contutto;
    EXPECT_THROW(MultiSlotSystem{bad}, FatalError);
}

TEST(MultiSlot, MixedConfigTrainsAndServes)
{
    auto p = allCdimm(4);
    p.slots[0].kind = SlotKind::contutto;
    p.slots[1].kind = SlotKind::empty;
    MultiSlotSystem socket(p);
    ASSERT_EQ(socket.populatedChannels(), 3u);
    ASSERT_TRUE(socket.trainAll());

    // The ConTutto channel and the CDIMM channels all serve global
    // interleaved traffic.
    dmi::CacheLine line;
    int done = 0;
    for (int i = 0; i < 30; ++i) {
        line.fill(std::uint8_t(i + 1));
        socket.write(Addr(i) * 128, line,
                     [&](const HostOpResult &) { ++done; });
    }
    ASSERT_TRUE(socket.runUntilIdle());
    EXPECT_EQ(done, 30);

    int verified = 0;
    for (int i = 0; i < 30; ++i) {
        std::uint8_t expect = std::uint8_t(i + 1);
        socket.read(Addr(i) * 128,
                    [&, expect](const HostOpResult &r) {
                        if (r.data[0] == expect)
                            ++verified;
                    });
    }
    ASSERT_TRUE(socket.runUntilIdle());
    EXPECT_EQ(verified, 30);
}

TEST(MultiSlot, InterleaveCoversAllChannels)
{
    auto p = allCdimm(4);
    MultiSlotSystem socket(p);
    std::vector<unsigned> counts(4, 0);
    for (Addr a = 0; a < 4096 * 128; a += 128)
        ++counts[socket.channelOf(a)];
    for (unsigned c : counts)
        EXPECT_EQ(c, 1024u);
    // Local addresses are dense per channel.
    EXPECT_EQ(socket.localAddr(0), 0u);
    EXPECT_EQ(socket.localAddr(4 * 128), 128u);
    EXPECT_EQ(socket.localAddr(4 * 128 + 5), 133u);
}

TEST(MultiSlot, BandwidthScalesWithChannels)
{
    double bw2, bw8;
    {
        MultiSlotSystem socket(allCdimm(2));
        ASSERT_TRUE(socket.trainAll());
        bw2 = socket.measureAggregateReadBandwidth();
    }
    {
        MultiSlotSystem socket(allCdimm(8));
        ASSERT_TRUE(socket.trainAll());
        bw8 = socket.measureAggregateReadBandwidth();
    }
    // Near-linear channel scaling (the Figure 1 organization).
    EXPECT_GT(bw8, bw2 * 3.2);
    // And each Centaur channel sustains double-digit GB/s.
    EXPECT_GT(bw2, 20.0);
}

MultiSlotSystem::Params
shardedCdimm(unsigned channels, unsigned shards, bool parallel)
{
    auto p = allCdimm(channels);
    p.shards = shards;
    p.parallelExec = parallel;
    return p;
}

/** Stat groups named @p name anywhere under @p g. */
unsigned
countGroups(const stats::StatGroup &g, const std::string &name)
{
    unsigned n = g.groupName() == name ? 1 : 0;
    for (const stats::StatGroup *c : g.children())
        n += countGroups(*c, name);
    return n;
}

TEST(ShardedSocket, DefaultSocketRunsOnOneShard)
{
    MultiSlotSystem socket(allCdimm(4));
    EXPECT_EQ(socket.executor()->numShards(), 1u);
    // One queue, so exactly one eventq group in the stats tree.
    EXPECT_EQ(countGroups(socket, "eventq"), 1u);
}

TEST(ShardedSocket, DerivedWindowTracksFrameLatency)
{
    // 28-byte downstream frame = 224 bits on 14 lanes = 16 UI;
    // plus 1 ns flight; x1024 batching.
    auto cdimm = allCdimm(4);
    EXPECT_EQ(MultiSlotSystem::deriveWindow(cdimm),
              Tick((16 * 104 + 1000) * 1024));
    auto mixed = allCdimm(4);
    mixed.slots[0].kind = SlotKind::contutto;
    mixed.slots[1].kind = SlotKind::empty;
    // The CDIMM channels' faster UI...no: 104 < 125, so the CDIMM
    // frame is the *minimum* and still governs the lookahead.
    EXPECT_EQ(MultiSlotSystem::deriveWindow(mixed),
              Tick((16 * 104 + 1000) * 1024));
}

TEST(ShardedSocket, DerivedWindowMatchesTheLanesTheSocketBuilt)
{
    // The lookahead must come from the lanes the channels really
    // have: 1024x the fastest built downstream frame plus 1 ns of
    // flight. A channel whose unit interval drifted from what
    // deriveWindow assumes would make the window unsafe.
    auto allContutto = allCdimm(8);
    for (unsigned s = 0; s < MultiSlotSystem::numSlots; ++s)
        allContutto.slots[s].kind =
            s % 2 == 0 ? SlotKind::contutto : SlotKind::empty;
    auto oneContutto = allCdimm(8);
    oneContutto.slots[0].kind = SlotKind::contutto;
    oneContutto.slots[1].kind = SlotKind::empty;

    for (const auto &[name, params] :
         {std::pair{"allContutto", allContutto},
          std::pair{"allCdimm", allCdimm(8)},
          std::pair{"oneContuttoSixCdimm", oneContutto}}) {
        MultiSlotSystem socket(params);
        ASSERT_GT(socket.populatedChannels(), 0u) << name;
        Tick minSer = maxTick;
        for (unsigned i = 0; i < socket.populatedChannels(); ++i)
            minSer = std::min(minSer,
                              socket.channel(i).downChannel()
                                  .serializationTime(
                                      dmi::downFrameBytes));
        EXPECT_EQ(MultiSlotSystem::deriveWindow(params),
                  1024 * (minSer + nanoseconds(1)))
            << name;
    }
}

TEST(ShardedSocket, TrainsAndServesInterleavedTraffic)
{
    for (bool parallel : {false, true}) {
        MultiSlotSystem socket(shardedCdimm(4, 4, parallel));
        ASSERT_TRUE(socket.trainAll()) << "parallel=" << parallel;

        // Ops issued from setup complete on each channel's own
        // shard, so these counters are written from several worker
        // threads: atomics, settled by runUntilIdle's barrier.
        dmi::CacheLine line;
        std::atomic<int> done{0};
        for (int i = 0; i < 40; ++i) {
            line.fill(std::uint8_t(i + 1));
            socket.write(Addr(i) * 128, line,
                         [&](const HostOpResult &) { ++done; });
        }
        ASSERT_TRUE(socket.runUntilIdle());
        EXPECT_EQ(done.load(), 40);

        std::atomic<int> verified{0};
        for (int i = 0; i < 40; ++i) {
            std::uint8_t expect = std::uint8_t(i + 1);
            socket.read(Addr(i) * 128,
                        [&, expect](const HostOpResult &r) {
                            if (r.data[0] == expect)
                                ++verified;
                        });
        }
        ASSERT_TRUE(socket.runUntilIdle());
        EXPECT_EQ(verified.load(), 40) << "parallel=" << parallel;
    }
}

TEST(ShardedSocket, CrossShardCompletionsComeBackToTheCaller)
{
    // An op issued from inside channel 0's shard against channel 1
    // (a foreign shard) must cross out and back via mailboxes and
    // still complete — the socket-arbitration path of the paper's
    // Figure 1 organization.
    MultiSlotSystem socket(shardedCdimm(4, 4, true));
    ASSERT_TRUE(socket.trainAll());

    bool peer_done = false;
    unsigned completion_shard = ~0u;
    dmi::CacheLine line;
    line.fill(0x5a);
    // Hop onto shard 0 via its queue, then talk to channel 1.
    socket.executor()->post(
        0, socket.channelQueue(0).curTick(), [&] {
            socket.write(Addr(1) * 128, line,
                         [&](const HostOpResult &) {
                             peer_done = true;
                             completion_shard =
                                 socket.executor()->currentShard();
                         });
        });
    ASSERT_TRUE(socket.runUntilIdle());
    EXPECT_TRUE(peer_done);
    // The completion ran back on the issuing shard, not channel 1's.
    EXPECT_EQ(completion_shard, 0u);
    EXPECT_GE(socket.executor()->counters().messages, 2u);
}

TEST(ShardedSocket, SerialAndParallelBandwidthBitIdentical)
{
    // The measured number is a pure function of simulated time, so
    // the serial fallback and the threaded run must agree exactly —
    // double-equality, not tolerance.
    auto measure = [](bool parallel, unsigned shards) {
        MultiSlotSystem socket(shardedCdimm(4, shards, parallel));
        EXPECT_TRUE(socket.trainAll());
        return socket.measureAggregateReadBandwidth(microseconds(8));
    };
    for (unsigned shards : {2u, 4u}) {
        double serial = measure(false, shards);
        double parallel = measure(true, shards);
        EXPECT_EQ(serial, parallel) << shards << " shards";
        EXPECT_GT(serial, 20.0);
    }
}

TEST(MultiSlot, OneTerabyteSocket)
{
    // Paper §2.1: up to 1 TB per fully configured socket.
    MultiSlotSystem::Params p;
    for (unsigned s = 0; s < 8; ++s) {
        p.slots[s].kind = SlotKind::cdimm;
        p.slots[s].channel = smallChannel(64 * GiB);
    }
    MultiSlotSystem socket(p);
    EXPECT_EQ(socket.totalCapacity(), 1024 * GiB);
}

} // namespace
