/** @file Storage stack tests: devices, FIO, GPFS, pmem. */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "storage/fio.hh"
#include "storage/flat_latency.hh"
#include "storage/gpfs.hh"
#include "storage/pmem.hh"
#include "storage/sas_devices.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::storage;

namespace
{

struct DevRig
{
    EventQueue eq;
    ClockDomain d{"d", 500};
    stats::StatGroup root{"root"};
};

Power8System::Params
mramSystem()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}},
               DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}}};
    return p;
}

TEST(Hdd, RandomWritesCostSeekPlusRotation)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root);
    FioEngine::Params fp;
    fp.ops = 50;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(6);
    auto r = FioEngine(fp).run(rig.eq, hdd);
    // Random 4K writes on a 7.2K disk: order 10+ ms each.
    EXPECT_GT(r.meanWriteLatencyUs, 5000);
    EXPECT_LT(r.totalIops, 200);
}

TEST(Hdd, SequentialIsFarFasterThanRandom)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root);
    int done = 0;
    Tick t0 = rig.eq.curTick();
    std::function<void(int)> next = [&](int i) {
        if (i >= 200)
            return;
        BlockRequest req;
        req.lba = std::uint64_t(i); // purely sequential
        req.isWrite = true;
        req.onDone = [&, i](const BlockRequest &) {
            ++done;
            next(i + 1);
        };
        hdd.submit(std::move(req));
    };
    next(0);
    while (done < 200 && rig.eq.step()) {
    }
    double iops = 200.0 / ticksToSeconds(rig.eq.curTick() - t0);
    EXPECT_GT(iops, 2000); // no seeks: transfer + overhead only
    EXPECT_GT(hdd.ioStats().writeOps.value(), 199.0);
}

TEST(Ssd, HitsFifteenKIopsClass)
{
    DevRig rig;
    FlatLatencyDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                          FlatLatencyDevice::sasSsd());
    FioEngine::Params fp;
    fp.ops = 500;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(6);
    auto r = FioEngine(fp).run(rig.eq, ssd);
    EXPECT_GT(r.totalIops, 12000);
    EXPECT_LT(r.totalIops, 18000);
}

TEST(Pcie, ProtocolOverheadSetsLatencyFloor)
{
    DevRig rig;
    auto params = FlatLatencyDevice::mramOnPcie();
    FlatLatencyDevice dev("pcie", rig.eq, rig.d, &rig.root, params);
    FioEngine::Params fp;
    fp.ops = 200;
    fp.readFraction = 1.0;
    fp.softwareOverhead = 0;
    auto r = FioEngine(fp).run(rig.eq, dev);
    // Even with instant media, a PCIe op cannot beat the protocol.
    EXPECT_GT(r.meanReadLatencyUs,
              ticksToNs(params.commandOverhead) / 1000.0);
}

TEST(Pcie, NvramFasterThanFlash)
{
    DevRig rig;
    FlatLatencyDevice nvram("nvram", rig.eq, rig.d, &rig.root,
                            FlatLatencyDevice::nvramOnPcie());
    FlatLatencyDevice flash("flash", rig.eq, rig.d, &rig.root,
                            FlatLatencyDevice::flashOnPcie());
    FioEngine::Params fp;
    fp.ops = 200;
    fp.softwareOverhead = microseconds(9);
    auto rn = FioEngine(fp).run(rig.eq, nvram);
    auto rf = FioEngine(fp).run(rig.eq, flash);
    EXPECT_GT(rn.totalIops, rf.totalIops * 1.5);
    EXPECT_LT(rn.meanReadLatencyUs, rf.meanReadLatencyUs);
}

TEST(Pmem, BlockOpsTraverseSimulatedChannel)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice dev("pmem", sys, &sys, {});

    auto mbs_reads_before =
        sys.card()->mbs().mbsStats().reads.value();
    bool done = false;
    BlockRequest req;
    req.lba = 7;
    req.isWrite = false;
    req.onDone = [&](const BlockRequest &) { done = true; };
    dev.submit(std::move(req));
    while (!done && sys.eventq().step()) {
    }
    ASSERT_TRUE(done);
    // A 4 KiB block is 32 cache-line reads through MBS.
    EXPECT_EQ(sys.card()->mbs().mbsStats().reads.value()
                  - mbs_reads_before,
              32.0);
}

TEST(Pmem, WritesArePersistedWithFlush)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice dev("pmem", sys, &sys, {});

    bool done = false;
    BlockRequest req;
    req.lba = 3;
    req.isWrite = true;
    req.onDone = [&](const BlockRequest &) { done = true; };
    dev.submit(std::move(req));
    while (!done && sys.eventq().step()) {
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(sys.card()->mbs().mbsStats().flushes.value(), 1.0);
}

TEST(Pmem, DmiAttachBeatsPcieOnLatency)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys,
                         PmemBlockDevice::Params::forMram());
    FioEngine::Params fp;
    fp.ops = 300;
    fp.softwareOverhead = microseconds(4);
    auto r_dmi = FioEngine(fp).run(sys.eventq(), pmem);

    DevRig rig;
    FlatLatencyDevice mram_pcie("mp", rig.eq, rig.d, &rig.root,
                                FlatLatencyDevice::mramOnPcie());
    auto r_pcie = FioEngine(fp).run(rig.eq, mram_pcie);

    // Paper Figure 10: ~2.4x lower read, ~5x lower write latency.
    double read_ratio =
        r_pcie.meanReadLatencyUs / r_dmi.meanReadLatencyUs;
    double write_ratio =
        r_pcie.meanWriteLatencyUs / r_dmi.meanWriteLatencyUs;
    EXPECT_GT(read_ratio, 1.8);
    EXPECT_LT(read_ratio, 3.2);
    EXPECT_GT(write_ratio, 3.5);
    EXPECT_LT(write_ratio, 7.0);
}

TEST(Gpfs, DirectHddIsSeventyFiveIopsClass)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root);
    GpfsWriteCache gpfs("gpfs", rig.eq, rig.d, &rig.root, nullptr,
                        hdd);
    Rng rng(1);
    int done = 0;
    Tick t0 = rig.eq.curTick();
    std::function<void()> next = [&] {
        if (done >= 60)
            return;
        gpfs.appWrite(rng.below(hdd.capacityBlocks()), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 60 && rig.eq.step()) {
    }
    double iops = 60.0 / ticksToSeconds(rig.eq.curTick() - t0);
    EXPECT_GT(iops, 50);
    EXPECT_LT(iops, 110);
}

TEST(Gpfs, CacheAggregatesIntoSequentialDestages)
{
    DevRig rig;
    HddDevice hdd("hdd", rig.eq, rig.d, &rig.root);
    FlatLatencyDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                          FlatLatencyDevice::sasSsd());
    GpfsWriteCache gpfs("gpfs", rig.eq, rig.d, &rig.root, &ssd, hdd);
    Rng rng(2);
    int done = 0;
    std::function<void()> next = [&] {
        if (done >= 1000)
            return;
        gpfs.appWrite(rng.below(1000000), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 1000 && rig.eq.step()) {
    }
    // Destages happened, each covering many app writes.
    double destages = gpfs.gpfsStats().destages.value();
    EXPECT_GT(destages, 1.0);
    EXPECT_LT(destages, 1000.0 / 32.0);
    // And the disk saw large sequential writes, not 4K randoms.
    EXPECT_GT(hdd.ioStats().writeOps.value(), 0.0);
}

TEST(Gpfs, MramCacheReachesTable4Class)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys, {});
    HddDevice hdd("hdd", sys.eventq(), sys.nestDomain(), &sys);
    GpfsWriteCache gpfs("gpfs", sys.eventq(), sys.nestDomain(), &sys,
                        &pmem, hdd);
    Rng rng(3);
    int done = 0;
    Tick t0 = sys.eventq().curTick();
    std::function<void()> next = [&] {
        if (done >= 1500)
            return;
        gpfs.appWrite(rng.below(60000), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < 1500 && sys.eventq().step()) {
    }
    double iops = 1500.0 / ticksToSeconds(sys.eventq().curTick() - t0);
    // Table 4: 125K IOPS, 8.3x over the 15K SSD.
    EXPECT_GT(iops, 100000);
    EXPECT_LT(iops, 160000);
}

TEST(Slram, FasterThanPmemButNoFlush)
{
    Power8System sys(mramSystem());
    ASSERT_TRUE(sys.train());
    PmemBlockDevice pmem("pmem", sys, &sys, {});
    PmemBlockDevice slram("slram", sys, &sys,
                          PmemBlockDevice::Params::forSlram());

    FioEngine::Params fp;
    fp.ops = 120;
    fp.readFraction = 0.0;
    fp.softwareOverhead = microseconds(1);
    auto rp = FioEngine(fp).run(sys.eventq(), pmem);
    auto rs = FioEngine(fp).run(sys.eventq(), slram);

    // The raw path skips the flush barrier and the thicker driver.
    EXPECT_LT(rs.meanWriteLatencyUs, rp.meanWriteLatencyUs);
    // And it issues no flush commands at all.
    EXPECT_EQ(slram.pmemStats().flushesIssued.value(), 0.0);
    EXPECT_EQ(sys.card()->mbs().mbsStats().flushes.value(),
              double(rp.writesDone));
}

/** One FIO run's exact outcome. */
struct FioPin
{
    double readIops;
    double writeIops;
    double meanReadLatencyUs;
    double meanWriteLatencyUs;
    unsigned readsDone;
    unsigned writesDone;
};

/** The pinned stream's queue depths; the deepest one overflows the
 *  SAS SSD's 8 internal channels. */
constexpr unsigned pinDepths[] = {1, 4, 12};

/**
 * Run the pinned stream on @p dev: 200 mixed ops per queue depth,
 * each depth with its own seed, and check every report and the
 * device's request counters exactly.
 */
void
expectPinnedFio(EventQueue &eq, BlockDevice &dev,
                const FioPin (&want)[3])
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (unsigned i = 0; i < 3; ++i) {
        SCOPED_TRACE("queue depth " + std::to_string(pinDepths[i]));
        FioEngine::Params fp;
        fp.ops = 200;
        fp.readFraction = 0.5;
        fp.softwareOverhead = microseconds(2);
        fp.queueDepth = pinDepths[i];
        fp.seed = 70 + pinDepths[i];
        auto r = FioEngine(fp).run(eq, dev);
        EXPECT_DOUBLE_EQ(r.readIops, want[i].readIops);
        EXPECT_DOUBLE_EQ(r.writeIops, want[i].writeIops);
        EXPECT_DOUBLE_EQ(r.meanReadLatencyUs,
                         want[i].meanReadLatencyUs);
        EXPECT_DOUBLE_EQ(r.meanWriteLatencyUs,
                         want[i].meanWriteLatencyUs);
        EXPECT_EQ(r.readsDone, want[i].readsDone);
        EXPECT_EQ(r.writesDone, want[i].writesDone);
        reads += want[i].readsDone;
        writes += want[i].writesDone;
    }
    EXPECT_EQ(dev.ioStats().readOps.value(), double(reads));
    EXPECT_EQ(dev.ioStats().writeOps.value(), double(writes));
    EXPECT_EQ(dev.ioStats().failedOps.value(), 0.0);
    EXPECT_EQ(dev.ioStats().readLatency.count(), reads);
    EXPECT_EQ(dev.ioStats().writeLatency.count(), writes);
}

// FioPin: {readIops, writeIops, meanReadLatencyUs,
// meanWriteLatencyUs, readsDone, writesDone} at QD 1, 4 and 12.
// The figures predate the SAS SSD and raw slram becoming presets of
// the flat-latency device and the pmem driver.

TEST(StorageTimings, FlatLatencyPresetsExact)
{
    struct Case
    {
        FlatLatencyDevice::Params params;
        FioPin want[3];
    };
    const Case cases[] = {
        {FlatLatencyDevice::sasSsd(),
         {{5965.0532714605606, 5081.3416756886263,
           112.4472719999999, 60.447272000000069, 108, 92},
          {21882.278040036355, 23235.821011584994,
           112.44727199999996, 60.447272000000098, 97, 103},
          {45503.584419272731, 45503.584419272731,
           153.34196256000004, 99.570908000000017, 100, 100}}},
        {FlatLatencyDevice::nvramOnPcie(),
         {{20865.533230293662, 17774.343122102007,
           19.27999999999998, 29.280000000000033, 108, 92},
          {73192.080164191721, 77719.425328987083,
           19.279999999999976, 29.280000000000051, 97, 103},
          {220731.06127494262, 220731.06127494262,
           19.279999999999976, 29.280000000000044, 100, 100}}},
        {FlatLatencyDevice::flashOnPcie(),
         {{7450.3311258278145, 6346.5783664459159,
           84.279999999999987, 54.28000000000003, 108, 92},
          {27045.413990007139, 28718.326195574591,
           84.279999999999916, 54.280000000000001, 97, 103},
          {81515.536861325774, 81515.536861325774,
           84.27999999999993, 54.280000000000008, 100, 100}}},
        {FlatLatencyDevice::mramOnPcie(),
         {{51097.653292959883, 43527.630582891754,
           7.2799999999999825, 10.080000000000016, 108, 92},
          {179762.78724981469, 190882.13491475166,
           7.2799999999999834, 10.080000000000018, 97, 103},
          {540891.389009087, 540891.389009087,
           7.2799999999999834, 10.080000000000018, 100, 100}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.params.description);
        DevRig rig;
        FlatLatencyDevice dev("dev", rig.eq, rig.d, &rig.root,
                              c.params);
        expectPinnedFio(rig.eq, dev, c.want);
    }
}

TEST(StorageTimings, DmiDriversExact)
{
    {
        Power8System sys(mramSystem());
        ASSERT_TRUE(sys.train());
        PmemBlockDevice slram("slram", sys, &sys,
                              PmemBlockDevice::Params::forSlram());
        expectPinnedFio(sys.eventq(), slram,
                        {{159474.56085431113, 135848.69998700576,
           1.2831481481481486, 1.5070000000000001, 108, 92},
          {344379.51332429191, 365681.33889074298,
           3.4420206185566991, 3.7365631067961131, 97, 103},
          {355823.7676043809, 355823.7676043809,
           14.229959999999998, 14.537940000000003, 100, 100}});
        EXPECT_EQ(slram.pmemStats().flushesIssued.value(), 0.0);
    }
    {
        Power8System sys(mramSystem());
        ASSERT_TRUE(sys.train());
        PmemBlockDevice pmem("pmem", sys, &sys,
                             PmemBlockDevice::Params::forMram());
        expectPinnedFio(sys.eventq(), pmem,
                        {{121012.19982251545, 103084.46651547612,
           2.9831481481481483, 1.8509999999999989, 108, 92},
          {201245.64832219222, 213693.83275449276,
           8.1517938144329882, 6.9951650485436918, 97, 103},
          {205999.53032107087, 205999.53032107087,
           27.156599999999973, 25.681739999999976, 100, 100}});
        EXPECT_EQ(pmem.pmemStats().flushesIssued.value(), 295.0);
    }
}

TEST(Fio, ReadFractionRespected)
{
    DevRig rig;
    FlatLatencyDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                          FlatLatencyDevice::sasSsd());
    FioEngine::Params fp;
    fp.ops = 1000;
    fp.readFraction = 0.7;
    auto r = FioEngine(fp).run(rig.eq, ssd);
    EXPECT_EQ(r.readsDone + r.writesDone, 1000u);
    EXPECT_NEAR(double(r.readsDone) / 1000.0, 0.7, 0.05);
}

TEST(Fio, QueueDepthRaisesThroughput)
{
    DevRig rig;
    FlatLatencyDevice ssd("ssd", rig.eq, rig.d, &rig.root,
                          FlatLatencyDevice::sasSsd());
    FioEngine::Params qd1;
    qd1.ops = 500;
    FioEngine::Params qd4 = qd1;
    qd4.queueDepth = 4;
    auto r1 = FioEngine(qd1).run(rig.eq, ssd);
    auto r4 = FioEngine(qd4).run(rig.eq, ssd);
    EXPECT_GT(r4.totalIops, r1.totalIops * 2);
}

} // namespace
