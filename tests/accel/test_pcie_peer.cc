/** @file Card-to-card PCIe peer transfer tests. */

#include <gtest/gtest.h>

#include "accel/pcie_peer.hh"
#include "cpu/multi_slot.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

/**
 * Two ConTutto cards in the paper's 2-card configuration, on
 * @p shards shards: card A's channel on shard 0, card B's on shard
 * 1 mod @p shards.
 */
struct TwoCardRig
{
    MultiSlotSystem socket;
    fpga::ContuttoCard *cardA;
    fpga::ContuttoCard *cardB;
    PciePeerLink link;

    explicit TwoCardRig(unsigned shards = 1, bool parallel = true)
        : socket(makeParams(shards, parallel)),
          cardA(socket.channelInSlot(0)->card()),
          cardB(socket.channelInSlot(2)->card()),
          link("pcie", *socket.executor(), socket.shardOfChannel(0),
               socket.shardOfChannel(1), cardA->clockDomain(), &socket,
               *cardA, *cardB)
    {}

    static MultiSlotSystem::Params
    makeParams(unsigned shards, bool parallel)
    {
        MultiSlotSystem::Params p;
        ChannelParams ch;
        ch.dimms = {DimmSpec{mem::MemTech::dram, 128 * MiB, {}, {}},
                    DimmSpec{mem::MemTech::dram, 128 * MiB, {}, {}}};
        p.slots[0] = SlotSpec{SlotKind::contutto, ch};
        p.slots[2] = SlotSpec{SlotKind::contutto, ch};
        for (unsigned s : {1u, 3u, 4u, 5u, 6u, 7u})
            p.slots[s] = SlotSpec{SlotKind::empty, {}};
        p.shards = shards;
        p.parallelExec = parallel;
        // Lines cross shards at window edges, so the window may be
        // no wider than the link's per-line latency.
        if (shards > 1)
            p.shardWindow = PciePeerLink::lineLatency;
        return p;
    }

    /** Transfer to completion; returns the completion tick as seen
     *  by the done callback on the engine's shard (0: never done). */
    Tick
    runTransfer(unsigned src_card, Addr src, Addr dst,
                std::uint64_t bytes)
    {
        bool done = false;
        Tick done_at = 0;
        EventQueue &eng = socket.channelQueue(src_card);
        link.transfer(src_card, src, dst, bytes, [&] {
            done = true;
            done_at = eng.curTick();
        });
        EXPECT_TRUE(socket.executor()->runUntilIdle(
            [&done] { return done; }, milliseconds(100)));
        return done_at;
    }
};

TEST(PciePeer, MovesDataBetweenCards)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    std::vector<std::uint8_t> blob(32 * 1024);
    Rng rng(7);
    for (auto &b : blob)
        b = std::uint8_t(rng.next());
    rig.socket.channelInSlot(0)->functionalWrite(0x4000, blob.size(),
                                                 blob.data());

    ASSERT_GT(rig.runTransfer(0, 0x4000, 0x9000, blob.size()), Tick(0));

    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(2)->functionalRead(0x9000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
    EXPECT_EQ(rig.link.peerStats().transfers.value(), 1.0);
}

TEST(PciePeer, ReverseDirectionWorks)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());
    std::vector<std::uint8_t> blob(4096, 0xEE);
    rig.socket.channelInSlot(2)->functionalWrite(0, blob.size(),
                                                 blob.data());
    ASSERT_GT(rig.runTransfer(1, 0, 0x2000, blob.size()), Tick(0));
    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(0)->functionalRead(0x2000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
}

TEST(PciePeer, DoesNotBurdenTheMemoryBus)
{
    // The paper's point: the transfer must not produce DMI frames.
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    auto frames_before =
        rig.socket.channelInSlot(0)->upChannel().channelStats()
            .framesCarried.value()
        + rig.socket.channelInSlot(2)->upChannel().channelStats()
              .framesCarried.value();

    ASSERT_GT(rig.runTransfer(0, 0, 0x8000, 64 * 1024), Tick(0));

    auto frames_after =
        rig.socket.channelInSlot(0)->upChannel().channelStats()
            .framesCarried.value()
        + rig.socket.channelInSlot(2)->upChannel().channelStats()
              .framesCarried.value();
    EXPECT_EQ(frames_after, frames_before);
}

TEST(PciePeer, ThroughputBoundByPcieBandwidth)
{
    // Split across two shards the link must keep its bandwidth: a
    // line that waited for a window barrier would cut it to a
    // fraction.
    for (unsigned shards : {1u, 2u}) {
        TwoCardRig rig(shards);
        ASSERT_TRUE(rig.socket.trainAll());
        const std::uint64_t bytes = 4 * MiB;
        const Tick t0 = rig.socket.channelQueue(0).curTick();
        const Tick t1 = rig.runTransfer(0, 0, 0, bytes);
        ASSERT_GT(t1, t0) << shards << " shards";
        double gbps = double(bytes) / ticksToSeconds(t1 - t0) / 1e9;
        // Gen3 x8 class: most of 6.4 GB/s, never more.
        EXPECT_GT(gbps, 4.5) << shards << " shards";
        EXPECT_LT(gbps, 6.5) << shards << " shards";
    }
}

TEST(PciePeerSharded, SplitLinkMovesDataAndStaysDeterministic)
{
    std::vector<std::uint8_t> blob(32 * 1024);
    Rng rng(7);
    for (auto &b : blob)
        b = std::uint8_t(rng.next());

    // The same transfer on the serial fallback and on 2 worker
    // threads must complete at the same tick with the same executor
    // message trace — the link's cross-shard hops are part of the
    // deterministic protocol, not a source of timing noise.
    struct Run
    {
        Tick doneAt;
        std::uint64_t messages;
        std::vector<std::uint8_t> out;
        double transfers;
    };
    auto once = [&](bool parallel) {
        TwoCardRig rig(2, parallel);
        EXPECT_TRUE(rig.socket.trainAll());
        rig.socket.channelInSlot(0)->functionalWrite(
            0x4000, blob.size(), blob.data());
        Run r;
        r.doneAt = rig.runTransfer(0, 0x4000, 0x9000, blob.size());
        r.messages = rig.socket.executor()->counters().messages;
        r.out.resize(blob.size());
        rig.socket.channelInSlot(2)->functionalRead(
            0x9000, r.out.size(), r.out.data());
        r.transfers = rig.link.peerStats().transfers.value();
        return r;
    };

    const Run serial = once(false);
    const Run parallel = once(true);

    EXPECT_EQ(serial.out, blob);
    EXPECT_EQ(parallel.out, blob);
    EXPECT_EQ(serial.transfers, 1.0);
    EXPECT_EQ(parallel.transfers, 1.0);
    EXPECT_GT(serial.doneAt, Tick(0));
    EXPECT_EQ(serial.doneAt, parallel.doneAt);
    // Lines crossed the link as executor messages, identically.
    EXPECT_GT(serial.messages, 0u);
    EXPECT_EQ(serial.messages, parallel.messages);
}

TEST(PciePeerSharded, ReverseDirectionCrossesBackToItsShard)
{
    TwoCardRig rig(2, true);
    ASSERT_TRUE(rig.socket.trainAll());
    std::vector<std::uint8_t> blob(4096, 0xEE);
    rig.socket.channelInSlot(2)->functionalWrite(0, blob.size(),
                                                 blob.data());
    Tick done_at = rig.runTransfer(1, 0, 0x2000, blob.size());
    EXPECT_GT(done_at, Tick(0));
    std::vector<std::uint8_t> out(blob.size());
    rig.socket.channelInSlot(0)->functionalRead(0x2000, out.size(),
                                                out.data());
    EXPECT_EQ(out, blob);
}

TEST(PciePeerSharded, RefusesAWindowWiderThanTheLineLatency)
{
    // The socket's derived window (3.072 us on this ConTutto pair)
    // would hold every 250 ns line back to a barrier.
    MultiSlotSystem::Params p = TwoCardRig::makeParams(2, false);
    p.shardWindow = 0;
    MultiSlotSystem socket(p);
    fpga::ContuttoCard &a = *socket.channelInSlot(0)->card();
    fpga::ContuttoCard &b = *socket.channelInSlot(2)->card();
    EXPECT_THROW(PciePeerLink("pcie", *socket.executor(), 0, 1,
                              a.clockDomain(), &socket, a, b),
                 FatalError);
}

TEST(PciePeer, CardMemoryStillServesHostDuringTransfer)
{
    TwoCardRig rig;
    ASSERT_TRUE(rig.socket.trainAll());

    bool transfer_done = false;
    rig.link.transfer(0, 0, 0x100000, 1 * MiB,
                      [&] { transfer_done = true; });
    // Meanwhile the host keeps using card A over DMI.
    int host_reads = 0;
    auto &port = rig.socket.channelInSlot(0)->port();
    std::function<void()> chase = [&] {
        if (host_reads >= 50)
            return;
        port.read(Addr(host_reads) * 4096,
                  [&](const HostOpResult &) {
                      ++host_reads;
                      chase();
                  });
    };
    chase();
    rig.socket.executor()->runUntilIdle(
        [&] { return transfer_done && host_reads >= 50; },
        milliseconds(100));
    EXPECT_TRUE(transfer_done);
    EXPECT_EQ(host_reads, 50);
}

} // namespace
