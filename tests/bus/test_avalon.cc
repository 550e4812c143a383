/** @file Avalon bus tests: decode, CDC timing, port pacing. */

#include <gtest/gtest.h>

#include <vector>

#include "bus/avalon.hh"
#include "contutto/contutto_card.hh"
#include "mem/ddr3_controller.hh"

using namespace contutto;
using namespace contutto::bus;
using namespace contutto::mem;

namespace
{

/** Immediate-completion scratch slave recording accesses. */
class ScratchSlave : public AvalonSlave
{
  public:
    void
    access(const MemRequestPtr &req) override
    {
        accesses.push_back(req->addr);
        if (req->isWrite)
            last_write = req->data[0];
        else
            req->data.fill(0xAB);
        if (req->onDone)
            req->onDone(*req);
    }

    std::string slaveName() const override { return "scratch"; }

    std::vector<Addr> accesses;
    std::uint8_t last_write = 0;
};

struct BusRig
{
    EventQueue eq;
    ClockDomain fabric{"fabric", 4000};
    ClockDomain ddr{"ddr", 1500};
    stats::StatGroup root{"root"};
    AvalonBus bus;
    ScratchSlave scratch;

    BusRig() : bus("avalon", eq, fabric, &root)
    {
        bus.attach(scratch, AddressRange{0x10000, 0x10000});
    }
};

TEST(AvalonBus, DecodesToSlaveRelativeAddress)
{
    BusRig rig;
    auto &port = rig.bus.createPort("rd0");
    auto req = std::make_shared<MemRequest>();
    req->addr = 0x10080;
    bool done = false;
    req->onDone = [&](MemRequest &r) {
        done = true;
        EXPECT_EQ(r.data[0], 0xAB);
    };
    port.submit(req);
    rig.eq.run(microseconds(1));
    ASSERT_TRUE(done);
    ASSERT_EQ(rig.scratch.accesses.size(), 1u);
    EXPECT_EQ(rig.scratch.accesses[0], 0x80u);
}

TEST(AvalonBus, CdcLatencyAppliedBothWays)
{
    BusRig rig;
    auto &port = rig.bus.createPort("rd0");
    auto req = std::make_shared<MemRequest>();
    req->addr = 0x10000;
    Tick done_at = 0;
    req->onDone = [&](MemRequest &) { done_at = rig.eq.curTick(); };
    port.submit(req);
    rig.eq.run(microseconds(1));
    // 2 x 6 cycles of CDC at 4 ns: 48 ns.
    EXPECT_EQ(done_at, nanoseconds(48));
}

TEST(AvalonBus, UnmappedAccessCompletesWithZeros)
{
    BusRig rig;
    LogControl::warnings() = false;
    auto &port = rig.bus.createPort("rd0");
    auto req = std::make_shared<MemRequest>();
    req->addr = 0xDEAD0000;
    bool done = false;
    req->onDone = [&](MemRequest &r) {
        done = true;
        EXPECT_EQ(r.data[0], 0);
    };
    port.submit(req);
    rig.eq.run(microseconds(1));
    LogControl::warnings() = true;
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.bus.busStats().unmappedAccesses.value(), 1.0);
}

TEST(AvalonBus, PortPacesOneIssuePerCycle)
{
    BusRig rig;
    auto &port = rig.bus.createPort("wr0");
    std::vector<Tick> completions;
    for (int i = 0; i < 8; ++i) {
        auto req = std::make_shared<MemRequest>();
        req->addr = 0x10000 + Addr(i) * 128;
        req->onDone = [&](MemRequest &) {
            completions.push_back(rig.eq.curTick());
        };
        port.submit(req);
    }
    rig.eq.run(microseconds(1));
    ASSERT_EQ(completions.size(), 8u);
    // Completions spaced at least one fabric cycle apart.
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i] - completions[i - 1], 4000u);
}

TEST(AvalonBus, TwoPortsIssueInParallel)
{
    BusRig rig;
    auto &p0 = rig.bus.createPort("rd0");
    auto &p1 = rig.bus.createPort("rd1");
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        auto req = std::make_shared<MemRequest>();
        req->addr = 0x10000 + Addr(i) * 128;
        req->onDone = [&](MemRequest &) { ++done; };
        (i == 0 ? p0 : p1).submit(req);
    }
    rig.eq.run(microseconds(1));
    EXPECT_EQ(done, 2);
    // Both hit the slave in the same cycle: parallel datapaths.
    ASSERT_EQ(rig.scratch.accesses.size(), 2u);
}

TEST(AvalonBus, OverlappingMappingIsFatal)
{
    BusRig rig;
    ScratchSlave other;
    EXPECT_THROW(
        rig.bus.attach(other, AddressRange{0x18000, 0x10000}),
        FatalError);
}

TEST(AvalonBus, InterleavedMemSlaveEndToEnd)
{
    // The card's slave: consecutive lines alternate between two
    // DIMM ports, each behind its own controller.
    BusRig rig;
    DramDevice dev0("dimm0", rig.eq, rig.ddr, &rig.root, 32 * MiB);
    DramDevice dev1("dimm1", rig.eq, rig.ddr, &rig.root, 32 * MiB);
    Ddr3Controller mc0("mc0", rig.eq, rig.ddr, &rig.root, {}, dev0);
    Ddr3Controller mc1("mc1", rig.eq, rig.ddr, &rig.root, {}, dev1);
    fpga::InterleavedMemSlave slave({&mc0, &mc1}, LineInterleave{2});
    rig.bus.attach(slave, AddressRange{0x40000000, 64 * MiB});

    auto &wr = rig.bus.createPort("wr");
    auto &rd = rig.bus.createPort("rd");

    // Two neighbouring lines: one per port.
    const Addr lines[] = {0x40000000 + 0x1000, 0x40000000 + 0x1080};
    const std::uint8_t fills[] = {0x66, 0x77};
    int wrote = 0;
    for (int i = 0; i < 2; ++i) {
        auto wreq = std::make_shared<MemRequest>();
        wreq->addr = lines[i];
        wreq->isWrite = true;
        wreq->data.fill(fills[i]);
        wreq->onDone = [&](MemRequest &) { ++wrote; };
        wr.submit(wreq);
    }
    rig.eq.run(rig.eq.curTick() + microseconds(1));
    ASSERT_EQ(wrote, 2);
    EXPECT_EQ(mc0.ctrlStats().writes.value(), 1.0);
    EXPECT_EQ(mc1.ctrlStats().writes.value(), 1.0);

    int read_ok = 0;
    for (int i = 0; i < 2; ++i) {
        auto rreq = std::make_shared<MemRequest>();
        rreq->addr = lines[i];
        rreq->onDone = [&, fill = fills[i]](MemRequest &r) {
            ++read_ok;
            for (auto b : r.data)
                EXPECT_EQ(b, fill);
        };
        rd.submit(rreq);
    }
    rig.eq.run(rig.eq.curTick() + microseconds(1));
    EXPECT_EQ(read_ok, 2);
}

} // namespace
