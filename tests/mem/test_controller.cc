/** @file DDR3 controller timing and functional tests. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/ddr3_controller.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::mem;

namespace
{

struct CtrlRig
{
    EventQueue eq;
    ClockDomain ddr{"ddr", 1500}; // DDR3-1333
    stats::StatGroup root{"root"};
    DramDevice dev;
    Ddr3Controller ctrl;

    explicit CtrlRig(Ddr3Controller::Params p = {})
        : dev("dimm", eq, ddr, &root, 256 * MiB),
          ctrl("mc", eq, ddr, &root, p, dev)
    {}

    /** Blocking single access helper. */
    Tick
    access(Addr addr, bool write, std::uint8_t fill = 0)
    {
        auto req = std::make_shared<MemRequest>();
        req->addr = addr;
        req->isWrite = write;
        if (write)
            req->data.fill(fill);
        bool done = false;
        Tick t0 = eq.curTick();
        Tick latency = 0;
        req->onDone = [&](MemRequest &) {
            done = true;
            latency = eq.curTick() - t0;
        };
        ctrl.submit(req);
        // Step just until completion so wall time (and refresh
        // cycles) don't pile up between back-to-back accesses.
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done);
        return latency;
    }
};

TEST(Ddr3Controller, WriteThenReadReturnsData)
{
    CtrlRig rig;
    rig.access(0x1000, true, 0x7E);
    auto req = std::make_shared<MemRequest>();
    req->addr = 0x1000;
    bool done = false;
    req->onDone = [&](MemRequest &r) {
        done = true;
        for (auto b : r.data)
            EXPECT_EQ(b, 0x7E);
    };
    rig.ctrl.submit(req);
    rig.eq.run(rig.eq.curTick() + microseconds(10));
    EXPECT_TRUE(done);
}

TEST(Ddr3Controller, RowHitIsFasterThanRowMiss)
{
    CtrlRig rig;
    // First access to bank 0 activates the row (closed-bank miss);
    // lines interleave across banks with stride 128 B, so the next
    // same-bank address is numBanks * 128 = 0x400.
    Tick first = rig.access(0x0, false);
    Tick hit_same_bank = rig.access(0x400, false);
    // Conflict: same bank, different row (row span 64 KiB).
    Tick conflict = rig.access(0x400 + 64 * KiB, false);

    EXPECT_LT(hit_same_bank, first);
    EXPECT_LT(hit_same_bank, conflict);
    EXPECT_LT(first, conflict); // conflict also pays precharge
    EXPECT_GT(rig.ctrl.ctrlStats().rowHits.value(), 0.0);
    EXPECT_GT(rig.ctrl.ctrlStats().rowMisses.value(), 0.0);
}

TEST(Ddr3Controller, LatencyInPlausibleDdr3Range)
{
    CtrlRig rig;
    Tick miss = rig.access(0x0, false);
    // A closed-bank DDR3-1333 read with the 2x8 ns frontend should
    // land in the 30-80 ns range.
    EXPECT_GE(miss, nanoseconds(25));
    EXPECT_LE(miss, nanoseconds(80));
    Tick hit = rig.access(0x400, false);
    EXPECT_GE(hit, nanoseconds(20));
    EXPECT_LE(hit, miss);
}

TEST(Ddr3Controller, BandwidthApproachesBusLimit)
{
    // Stream sequential lines; DDR3-1333 peak is 10.67 GB/s; an
    // open-page streaming pattern should get close.
    CtrlRig rig;
    const int n = 2000;
    int done = 0;
    Tick t0 = rig.eq.curTick();
    Tick last_done = t0;
    std::function<void(int)> issue = [&](int i) {
        auto req = std::make_shared<MemRequest>();
        req->addr = Addr(i) * dmi::cacheLineSize;
        req->isWrite = false;
        req->onDone = [&](MemRequest &) {
            ++done;
            last_done = rig.eq.curTick();
        };
        rig.ctrl.submit(req);
    };
    // Respect queue capacity: issue in waves.
    int issued = 0;
    while (issued < n) {
        while (issued < n && rig.ctrl.canAccept())
            issue(issued++);
        rig.eq.step();
    }
    rig.eq.run(rig.eq.curTick() + milliseconds(1));
    ASSERT_EQ(done, n);
    double secs = ticksToSeconds(last_done - t0);
    double bw = double(n) * 128 / secs;
    EXPECT_GT(bw, 7e9);   // at least ~70% of peak
    EXPECT_LT(bw, 10.7e9); // cannot beat the bus
}

TEST(Ddr3Controller, RefreshesHappenForDram)
{
    CtrlRig rig;
    rig.eq.run(milliseconds(1)); // ~128 tREFI intervals
    double refreshes = rig.ctrl.ctrlStats().refreshes.value();
    EXPECT_GT(refreshes, 100.0);
    EXPECT_LT(refreshes, 160.0);
}

TEST(Ddr3Controller, MaskedWriteMerges)
{
    CtrlRig rig;
    rig.access(0x2000, true, 0x33);
    auto req = std::make_shared<MemRequest>();
    req->addr = 0x2000;
    req->isWrite = true;
    req->masked = true;
    req->data.fill(0x44);
    req->enables.set(5);
    bool done = false;
    req->onDone = [&](MemRequest &) { done = true; };
    rig.ctrl.submit(req);
    rig.eq.run(rig.eq.curTick() + microseconds(10));
    ASSERT_TRUE(done);

    std::uint8_t out[128];
    rig.dev.image().read(0x2000, 128, out);
    EXPECT_EQ(out[4], 0x33);
    EXPECT_EQ(out[5], 0x44);
    EXPECT_EQ(out[6], 0x33);
}

TEST(MramDevice, NoRefreshAndSlowerWrites)
{
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("root");
    MramDevice mram("mram", eq, ddr, &root, 256 * MiB,
                    MramDevice::Junction::pMTJ);
    Ddr3Controller ctrl("mc", eq, ddr, &root, {}, mram);

    EXPECT_FALSE(mram.needsRefresh());

    auto write_req = std::make_shared<MemRequest>();
    write_req->addr = 0;
    write_req->isWrite = true;
    Tick wlat = 0;
    Tick t0 = eq.curTick();
    write_req->onDone = [&](MemRequest &) { wlat = eq.curTick() - t0; };
    ctrl.submit(write_req);
    eq.run(eq.curTick() + microseconds(10));

    // Compare with a DRAM write at the same state.
    CtrlRig dram_rig;
    Tick dram_wlat = dram_rig.access(0, true);
    EXPECT_GT(wlat, dram_wlat); // MRAM write pulse costs extra
    // And iMTJ is slower than pMTJ.
    MramDevice imtj("imtj", eq, ddr, &root, 1 * MiB,
                    MramDevice::Junction::iMTJ);
    EXPECT_GT(imtj.extraWriteLatency(), mram.extraWriteLatency());

    // No refreshes ever get scheduled for MRAM.
    eq.run(eq.curTick() + milliseconds(1));
    EXPECT_EQ(ctrl.ctrlStats().refreshes.value(), 0.0);
}

TEST(MramDevice, EnduranceTracking)
{
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("root");
    MramDevice mram("mram", eq, ddr, &root, 1 * MiB,
                    MramDevice::Junction::pMTJ);
    for (int i = 0; i < 100; ++i)
        mram.noteWrite(0x100, 64);
    mram.noteWrite(0x8000, 64);
    EXPECT_EQ(mram.maxBlockWrites(), 100u);
    EXPECT_EQ(mram.wornBlocks(), 0u);
    EXPECT_GT(mram.enduranceLimit(), 1e14);
}

TEST(DramDevice, KeepsNoPerBlockWearCounts)
{
    // Only an endurance-limited device counts writes per block; the
    // traffic counter is the same on both.
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("root");
    DramDevice dram("dram", eq, ddr, &root, 1 * MiB);
    MramDevice mram("mram", eq, ddr, &root, 1 * MiB,
                    MramDevice::Junction::pMTJ);
    for (MemoryDevice *dev :
         std::initializer_list<MemoryDevice *>{&dram, &mram}) {
        for (int i = 0; i < 100; ++i)
            dev->noteWrite(0x100, 64);
        dev->noteWrite(0x8000, 256);
    }
    EXPECT_EQ(dram.enduranceLimit(), 0u);
    EXPECT_EQ(dram.maxBlockWrites(), 0u);
    EXPECT_EQ(dram.wornBlocks(), 0u);
    EXPECT_EQ(mram.maxBlockWrites(), 100u);
    EXPECT_EQ(dram.bytesWritten(), 100.0 * 64 + 256);
    EXPECT_EQ(mram.bytesWritten(), dram.bytesWritten());
}

TEST(MramDevice, SurvivesPowerLoss)
{
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("root");
    MramDevice mram("mram", eq, ddr, &root, 1 * MiB,
                    MramDevice::Junction::pMTJ);
    mram.image().write64(0x500, 0xCAFE);
    mram.powerLoss();
    mram.powerRestore();
    EXPECT_EQ(mram.image().read64(0x500), 0xCAFEu);
}

TEST(DramDevice, LosesContentsOnPowerLoss)
{
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("root");
    DramDevice dram("dram", eq, ddr, &root, 1 * MiB);
    dram.image().write64(0x500, 0xCAFE);
    dram.powerLoss();
    EXPECT_EQ(dram.image().read64(0x500), 0u);
}

} // namespace
