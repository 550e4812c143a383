/** @file Cross-module integration scenarios. */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>

#include "accel/driver.hh"
#include "firmware/card_control.hh"
#include "storage/fio.hh"
#include "storage/pmem.hh"
#include "workloads/spec.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

Power8System::Params
mixedParams()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

TEST(Integration, BootThenWorkThenKnobViaRegisters)
{
    // The full §3.4 flow followed by real work: FSP boot (power,
    // config, SPDs, training), then application traffic, then
    // software moves the knob through the FSI->I2C path and the
    // latency change is visible end to end.
    Power8System sys(mixedParams());
    firmware::SystemCardControl control(sys);
    firmware::ErrorLog log;
    firmware::BootSequencer boot("boot", sys.eventq(),
                                 sys.nestDomain(), &sys, {}, control,
                                 log);
    firmware::BootReport report;
    bool booted = false;
    boot.start([&](const firmware::BootReport &r) {
        report = r;
        booted = true;
    });
    while (!booted && sys.eventq().step()) {
    }
    ASSERT_TRUE(report.success) << report.failReason;
    ASSERT_TRUE(report.map.valid);
    EXPECT_EQ(report.map.dramBytes(), 1 * GiB);

    double base = sys.measureReadLatencyNs();

    bool wrote = false;
    control.fsi().writeReg(firmware::regKnob, 5, [&] { wrote = true; });
    while (!wrote && sys.eventq().step()) {
    }
    double knobbed = sys.measureReadLatencyNs();
    EXPECT_NEAR(knobbed - base, 120.0, 8.0); // 5 x 24 ns
}

TEST(Integration, CpuAndAcceleratorShareDimmBandwidth)
{
    // The Access processor really shares the memory controllers
    // with the host: an accelerator scan slows while the CPU
    // hammers the same DIMMs.
    Power8System sys(mixedParams());
    ASSERT_TRUE(sys.train());
    accel::AccelComplex complex("accel", sys.eventq(),
                                sys.fabricDomain(), &sys, *sys.card(),
                                2ull * GiB);
    accel::AccelDriver driver(sys, complex, 256 * MiB);

    auto scan_time = [&](bool with_cpu_traffic) {
        bool done = false;
        Tick t0 = sys.eventq().curTick();
        driver.minMaxAsync(0, 4 * MiB,
                           [&](const accel::ControlBlock &) {
                               done = true;
                           });
        bool keep_hammering = with_cpu_traffic;
        std::function<void()> hammer = [&] {
            if (!keep_hammering)
                return;
            static Addr a = 64 * MiB;
            a += 4096;
            sys.port().read(a, [&](const HostOpResult &) {
                hammer();
            });
        };
        if (with_cpu_traffic)
            for (int i = 0; i < 16; ++i)
                hammer();
        while (!done && sys.eventq().step()) {
        }
        keep_hammering = false;
        sys.runUntilIdle();
        return double(sys.eventq().curTick() - t0);
    };

    double alone = scan_time(false);
    double contended = scan_time(true);
    EXPECT_GT(contended, alone * 1.1);
}

TEST(Integration, PersistentDataSurvivesPowerCycleEndToEnd)
{
    // pmem block writes -> NVDIMM save on power loss -> restore ->
    // retrain the link -> the data reads back over the timing path.
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::nvdimmN, 128 * MiB, {}, {}},
               DimmSpec{mem::MemTech::nvdimmN, 128 * MiB, {}, {}}};
    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    dmi::CacheLine line;
    line.fill(0xC4);
    sys.port().write(0x7000, line, nullptr);
    sys.port().flush(nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    auto &nv0 = static_cast<mem::NvdimmDevice &>(sys.dimm(0));
    auto &nv1 = static_cast<mem::NvdimmDevice &>(sys.dimm(1));
    nv0.powerLoss();
    nv1.powerLoss();
    sys.runFor(nv0.saveDuration() + milliseconds(1));
    ASSERT_EQ(nv0.state(), mem::NvdimmDevice::State::saved);
    nv0.powerRestore();
    nv1.powerRestore();
    sys.runFor(nv0.saveDuration() + milliseconds(1));
    ASSERT_EQ(nv0.state(), mem::NvdimmDevice::State::normal);

    // The channel would retrain after a platform power event.
    bool retrained = false;
    sys.trainAsync([&](const dmi::TrainingResult &r) {
        retrained = r.success;
    });
    while (!retrained && sys.eventq().step()) {
    }
    ASSERT_TRUE(retrained);

    bool verified = false;
    sys.port().read(0x7000, [&](const HostOpResult &r) {
        verified = (r.data[0] == 0xC4 && r.data[127] == 0xC4);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(verified);
}

TEST(Integration, NoisyLinkSoakWithKnobChanges)
{
    // Soak: random mixed operations under a lossy link while the
    // knob moves, checked against a reference model. Exactly-once
    // in-order delivery and data integrity must hold throughout.
    auto p = mixedParams();
    p.channelErrorRate = 0.005;
    Power8System sys(p);
    ASSERT_TRUE(sys.train());
    Rng rng(4242);

    constexpr Addr region = 256 * 1024;
    std::vector<std::uint8_t> ref(region, 0);
    int completed = 0;
    int issued = 0;
    for (int round = 0; round < 12; ++round) {
        sys.card()->mbs().setKnobPosition(round % 8);
        for (int op = 0; op < 25; ++op) {
            Addr addr = rng.below(region / 128) * 128;
            ++issued;
            if (rng.chance(0.45)) {
                dmi::CacheLine line;
                for (auto &b : line)
                    b = std::uint8_t(rng.next());
                std::memcpy(ref.data() + addr, line.data(), 128);
                sys.port().write(addr, line,
                                 [&](const HostOpResult &) {
                                     ++completed;
                                 });
            } else if (rng.chance(0.1)) {
                sys.port().flush([&](const HostOpResult &) {
                    ++completed;
                });
            } else {
                // Snapshot the reference at issue time: same-line
                // ordering guarantees the read observes exactly the
                // writes issued before it.
                std::array<std::uint8_t, 128> expect;
                std::memcpy(expect.data(), ref.data() + addr, 128);
                sys.port().read(
                    addr, [&, expect](const HostOpResult &r) {
                        ++completed;
                        for (int i = 0; i < 128; ++i)
                            ASSERT_EQ(r.data[i], expect[i]);
                    });
            }
            // Sync each round boundary so the reference stays valid
            // for reads racing writes to the same line.
            if (op % 25 == 24) {
                ASSERT_TRUE(sys.runUntilIdle(milliseconds(400)));
            }
        }
        ASSERT_TRUE(sys.runUntilIdle(milliseconds(400)));
    }
    EXPECT_EQ(completed, issued);
}

TEST(Integration, StatsTreeCoversTheWholeSystem)
{
    // Observability: after real traffic the hierarchical stats dump
    // names every layer of the stack with non-trivial numbers.
    Power8System sys(mixedParams());
    ASSERT_TRUE(sys.train());
    dmi::CacheLine line;
    line.fill(1);
    for (int i = 0; i < 10; ++i) {
        sys.port().write(Addr(i) * 128, line, nullptr);
        sys.port().read(Addr(i) * 128, nullptr);
    }
    ASSERT_TRUE(sys.runUntilIdle());

    std::ostringstream os;
    sys.printStats(os);
    std::string dump = os.str();
    for (const char *needle :
         {"system.chan0.down.framesCarried",
          "system.chan0.up.framesCarried",
          "system.chan0.contutto.mbi.txPayloadFrames",
          "system.chan0.contutto.mbs.reads 10",
          "system.chan0.contutto.mbs.writes 10",
          "system.chan0.contutto.avalon.transactions",
          "system.chan0.contutto.mc0.rowHits",
          "system.chan0.dimm0.bytesWritten",
          "system.chan0.hostPort.readLatency"}) {
        EXPECT_NE(dump.find(needle), std::string::npos)
            << "missing stat: " << needle;
    }
    // And a reset really zeroes the tree.
    sys.resetStats();
    std::ostringstream os2;
    sys.printStats(os2);
    EXPECT_NE(os2.str().find("mbs.reads 0"), std::string::npos);
}

TEST(Integration, SpecWorkloadWhileFioRunsOnPmem)
{
    // Two clients of the same card: a core model running an
    // application profile and a pmem block device doing I/O. Both
    // must finish and the combined pressure shows in tag stalls or
    // engine occupancy.
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}},
               DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                        mem::MramDevice::Junction::pMTJ, {}}};
    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    storage::PmemBlockDevice pmem("pmem", sys, &sys, {});
    // Storage I/O in the upper half of the pmem region.
    int io_done = 0;
    Rng rng(9);
    std::function<void()> io = [&] {
        if (io_done >= 150)
            return;
        storage::BlockRequest req;
        req.lba = 32768 + rng.below(16384);
        req.isWrite = rng.chance(0.5);
        req.onDone = [&](const storage::BlockRequest &) {
            ++io_done;
            io();
        };
        pmem.submit(std::move(req));
    };
    io();

    // The application in the lower region.
    ClockDomain core("core", 250);
    cpu::WorkloadProfile prof;
    prof.name = "mixed";
    prof.missesPerKiloInstr = 10;
    prof.workingSet = 64 * MiB;
    cpu::CoreModel::Params cp;
    cp.instructions = 150000;
    cpu::CoreModel model("core", sys.eventq(), core, &sys, prof, cp,
                         sys.port());
    bool app_done = false;
    model.start(
        [&](const cpu::CoreModel::Result &) { app_done = true; });

    while ((!app_done || io_done < 150) && sys.eventq().step()) {
    }
    EXPECT_TRUE(app_done);
    EXPECT_EQ(io_done, 150);
    EXPECT_GT(
        sys.card()->mbs().mbsStats().engineOccupancy.maximum(), 2.0);
}

} // namespace
