/** @file Boot sequencer tests over a live simulated system. */

#include <gtest/gtest.h>

#include "firmware/card_control.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::firmware;

namespace
{

Power8System::Params
mixedSystem(double lock_probability = 1.0)
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {
        DimmSpec{mem::MemTech::dram, 4 * GiB, {}, {}},
        DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                 mem::MramDevice::Junction::pMTJ, {}},
    };
    p.training.lockProbability = lock_probability;
    return p;
}

struct BootRig
{
    Power8System sys;
    SystemCardControl control;
    ErrorLog log;
    BootSequencer boot;

    explicit BootRig(Power8System::Params p,
                     BootSequencer::Params bp = {})
        : sys(p), control(sys), log(),
          boot("boot", sys.eventq(), sys.nestDomain(), &sys, bp,
               control, log)
    {}

    BootReport
    run()
    {
        BootReport report;
        bool finished = false;
        boot.start([&](const BootReport &r) {
            report = r;
            finished = true;
        });
        while (!finished && sys.eventq().step()) {
        }
        EXPECT_TRUE(finished);
        return report;
    }
};

TEST(Boot, FullSequenceSucceeds)
{
    BootRig rig(mixedSystem());
    auto report = rig.run();
    ASSERT_TRUE(report.success) << report.failReason;
    EXPECT_EQ(report.trainingAttempts, 1u);
    EXPECT_EQ(report.cardId, contuttoIdMagic);
    EXPECT_TRUE(report.training.success);
    ASSERT_TRUE(report.map.valid);
    EXPECT_EQ(report.map.dramBytes(), 4 * GiB);
    EXPECT_EQ(report.map.nonVolatileBytes(), 256 * MiB);
    // Boot time dominated by FPGA configuration + power sequencing.
    EXPECT_GT(report.bootTime, milliseconds(40));
}

TEST(Boot, FlakyLinkRetriesWithFpgaReset)
{
    // 45% per-phase lock chance: expect a few whole-training retries
    // before everything aligns.
    auto p = mixedSystem(0.45);
    p.training.maxAttemptsPerPhase = 1; // fail fast per attempt
    p.training.responseTimeout = microseconds(2);
    BootRig rig(p);
    auto report = rig.run();
    ASSERT_TRUE(report.success) << report.failReason;
    EXPECT_GT(report.trainingAttempts, 1u);
    EXPECT_GE(rig.log.recoverableCount("contutto.link"), 1u);
}

TEST(Boot, DeadLinkEventuallyGivesUp)
{
    auto p = mixedSystem(0.0);
    p.training.maxAttemptsPerPhase = 2;
    p.training.responseTimeout = microseconds(2);
    BootSequencer::Params bp;
    bp.maxTrainingAttempts = 3;
    BootRig rig(p, bp);
    auto report = rig.run();
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.trainingAttempts, 3u);
    EXPECT_GE(rig.log.recoverableCount("contutto.link"), 3u);
}

TEST(Boot, PowerFaultAbortsBoot)
{
    BootRig rig(mixedSystem());
    rig.control.power().injectFault("VCCAUX_2V5", true);
    auto report = rig.run();
    EXPECT_FALSE(report.success);
    EXPECT_NE(report.failReason.find("power"), std::string::npos);
    EXPECT_TRUE(rig.log.isDeconfigured("contutto.power"));
}

TEST(Boot, KnobControllableThroughRegisterPath)
{
    BootRig rig(mixedSystem());
    auto report = rig.run();
    ASSERT_TRUE(report.success);

    // Software moves the latency knob via FSI -> I2C -> CSR.
    bool wrote = false;
    rig.control.fsi().writeReg(regKnob, 6, [&] { wrote = true; });
    while (!wrote && rig.sys.eventq().step()) {
    }
    EXPECT_TRUE(wrote);
    EXPECT_EQ(rig.sys.card()->mbs().knobPosition(), 6u);

    std::uint32_t readback = 0;
    bool read_done = false;
    rig.control.fsi().readReg(regKnob, [&](std::uint32_t v) {
        readback = v;
        read_done = true;
    });
    while (!read_done && rig.sys.eventq().step()) {
    }
    EXPECT_EQ(readback, 6u);
}

// ---- Warm reboot across a power fault ------------------------------

Power8System::Params
nvdimmSystem(mem::NvdimmDevice::Params nv = {})
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {
        DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
        DimmSpec{.tech = mem::MemTech::nvdimmN,
                 .capacity = 64 * MiB,
                 .nvdimm = nv},
    };
    return p;
}

struct WarmRig : BootRig
{
    PowerDomain domain;

    explicit WarmRig(Power8System::Params p)
        : BootRig(p),
          domain("domain", sys.eventq(), sys.nestDomain(), &sys,
                 control.power())
    {
        domain.attachDevice(&sys.dimm(0));
        domain.attachDevice(&sys.dimm(1));
        domain.addCutHook([this] { sys.port().abortInFlight(); });
        domain.addCutHook([this] { sys.hostLink().resetLink(); });
        domain.addCutHook([this] { sys.card()->powerReset(); });
    }

    mem::NvdimmDevice &
    nv()
    {
        auto *d = dynamic_cast<mem::NvdimmDevice *>(&sys.dimm(1));
        EXPECT_NE(d, nullptr);
        return *d;
    }

    /** Cut power and let the module's save (or loss) play out. */
    void
    cutAndSettle()
    {
        domain.powerCut();
        sys.eventq().run(sys.eventq().curTick() + nv().saveDuration()
                         + control.power().powerDownTime()
                         + milliseconds(10));
    }

    BootReport
    warmRun()
    {
        BootReport report;
        bool finished = false;
        boot.warmReboot(domain, [&](const BootReport &r) {
            report = r;
            finished = true;
        });
        while (!finished && sys.eventq().step()) {
        }
        EXPECT_TRUE(finished);
        return report;
    }
};

TEST(Boot, WarmRebootRestoresCleanNvdimm)
{
    WarmRig rig(nvdimmSystem());
    auto cold = rig.run();
    ASSERT_TRUE(cold.success) << cold.failReason;
    EXPECT_FALSE(cold.warm);
    rig.nv().image().write64(0x4000, 0xC0FFEEu);

    rig.cutAndSettle();
    EXPECT_EQ(rig.nv().state(), mem::NvdimmDevice::State::saved);

    auto report = rig.warmRun();
    ASSERT_TRUE(report.success) << report.failReason;
    EXPECT_TRUE(report.warm);
    ASSERT_EQ(report.slotOutcomes.size(), 2u);
    EXPECT_EQ(report.slotOutcomes[0], mem::RestoreOutcome::none);
    EXPECT_EQ(report.slotOutcomes[1], mem::RestoreOutcome::clean);
    EXPECT_EQ(report.modulesLost, 0u);
    EXPECT_EQ(rig.nv().image().read64(0x4000), 0xC0FFEEu);
    EXPECT_EQ(rig.log.recoverableCount("dimm1"), 0u);

    // The rebuilt map still advertises the NVDIMM's contents.
    const MemoryMapEntry *nv_entry = nullptr;
    for (const auto &e : report.map.entries)
        if (e.tech == mem::MemTech::nvdimmN)
            nv_entry = &e;
    ASSERT_NE(nv_entry, nullptr);
    EXPECT_TRUE(nv_entry->contentPreserved);
    EXPECT_EQ(nv_entry->outcome, mem::RestoreOutcome::clean);
}

TEST(Boot, WarmRebootReportsTornSave)
{
    // One segment of supercap charge: the save tears mid-stream.
    mem::NvdimmDevice::Params nv;
    nv.supercapJoules = 0.01;
    WarmRig rig(nvdimmSystem(nv));
    ASSERT_TRUE(rig.run().success);

    rig.cutAndSettle();
    EXPECT_EQ(rig.nv().state(), mem::NvdimmDevice::State::partial);

    auto report = rig.warmRun();
    // The machine boots — with the loss on the record, not papered
    // over as preserved content.
    ASSERT_TRUE(report.success) << report.failReason;
    EXPECT_EQ(report.slotOutcomes[1], mem::RestoreOutcome::torn);
    EXPECT_EQ(report.modulesLost, 1u);
    EXPECT_GE(rig.log.recoverableCount("dimm1"), 1u);

    const MemoryMapEntry *nv_entry = nullptr;
    for (const auto &e : report.map.entries)
        if (e.tech == mem::MemTech::nvdimmN)
            nv_entry = &e;
    ASSERT_NE(nv_entry, nullptr);
    EXPECT_FALSE(nv_entry->contentPreserved);
    EXPECT_EQ(nv_entry->outcome, mem::RestoreOutcome::torn);
}

TEST(Boot, WarmRebootReportsSupercapLoss)
{
    mem::NvdimmDevice::Params nv;
    nv.charged = false;
    WarmRig rig(nvdimmSystem(nv));
    ASSERT_TRUE(rig.run().success);

    rig.cutAndSettle();
    EXPECT_EQ(rig.nv().state(), mem::NvdimmDevice::State::lost);

    auto report = rig.warmRun();
    ASSERT_TRUE(report.success) << report.failReason;
    EXPECT_EQ(report.slotOutcomes[1], mem::RestoreOutcome::lost);
    EXPECT_EQ(report.modulesLost, 1u);
    EXPECT_GE(rig.log.recoverableCount("dimm1"), 1u);
    EXPECT_FALSE(rig.nv().contentIntact());
}

TEST(Boot, SpdsIdentifyMixedModules)
{
    BootRig rig(mixedSystem());
    auto report = rig.run();
    ASSERT_TRUE(report.success);
    // The MRAM region carries the right flags for the pmem driver.
    const MemoryMapEntry *mram = nullptr;
    for (const auto &e : report.map.entries)
        if (e.tech == mem::MemTech::sttMram)
            mram = &e;
    ASSERT_NE(mram, nullptr);
    EXPECT_TRUE(mram->contentPreserved);
    EXPECT_EQ(mram->hwWindowSize, 4 * GiB);
}

} // namespace
