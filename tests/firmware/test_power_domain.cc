/**
 * @file
 * PowerSequencer re-entrancy and PowerDomain fan-out tests: cut
 * ordering, brownout ride-through/outage, restore sequencing, and
 * the device-ready timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "firmware/power_domain.hh"

using namespace contutto;
using namespace contutto::firmware;

namespace
{

struct SeqRig
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    stats::StatGroup root{"root"};
    PowerSequencer seq;

    SeqRig() : seq("seq", eq, nest, &root, contuttoRails()) {}
};

TEST(PowerSequencer, PowerDownDuringPowerUpAbortsTheUp)
{
    SeqRig rig;
    bool up_done = false, up_ok = true;
    rig.seq.powerUp([&](bool ok) {
        up_done = true;
        up_ok = ok;
    });
    rig.eq.run(rig.eq.curTick() + rig.seq.powerUpTime() / 2);
    ASSERT_EQ(rig.seq.state(), PowerSequencer::State::rampingUp);

    bool down_done = false;
    rig.seq.powerDown([&] { down_done = true; });
    // The interrupted up request fails synchronously — aborted, not
    // faulted — before the discharge begins.
    EXPECT_TRUE(up_done);
    EXPECT_FALSE(up_ok);
    EXPECT_TRUE(rig.seq.faultedRail().empty());
    EXPECT_EQ(rig.seq.abortedRamps(), 1u);

    rig.eq.run(rig.eq.curTick() + rig.seq.powerDownTime() + 1000);
    EXPECT_TRUE(down_done);
    EXPECT_EQ(rig.seq.state(), PowerSequencer::State::off);
}

TEST(PowerSequencer, PowerUpDuringPowerDownRestartsBringUp)
{
    SeqRig rig;
    rig.seq.powerUp(nullptr);
    rig.eq.run(rig.eq.curTick() + rig.seq.powerUpTime() + 1000);
    ASSERT_TRUE(rig.seq.isOn());

    bool down_done = false;
    rig.seq.powerDown([&] { down_done = true; });
    rig.eq.run(rig.eq.curTick() + rig.seq.powerDownTime() / 2);
    ASSERT_EQ(rig.seq.state(), PowerSequencer::State::rampingDown);

    bool up_done = false, up_ok = false;
    rig.seq.powerUp([&](bool ok) {
        up_done = true;
        up_ok = ok;
    });
    // The discharge completes logically before the restart.
    EXPECT_TRUE(down_done);
    EXPECT_EQ(rig.seq.state(), PowerSequencer::State::rampingUp);

    rig.eq.run(rig.eq.curTick() + rig.seq.powerUpTime() + 1000);
    EXPECT_TRUE(up_done);
    EXPECT_TRUE(up_ok);
    EXPECT_TRUE(rig.seq.isOn());
}

struct DomainRig
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    ClockDomain ddr{"ddr", 1500};
    stats::StatGroup root{"root"};
    PowerSequencer seq;
    PowerDomain domain;
    mem::NvdimmDevice nv; // 1 MiB: saves in ~5 ms.

    DomainRig()
        : seq("seq", eq, nest, &root, contuttoRails()),
          domain("domain", eq, nest, &root, seq),
          nv("nv", eq, ddr, &root, 1 * MiB, {})
    {
        domain.attachDevice(&nv);
    }

    void
    settle(Tick extra = 0)
    {
        eq.run(eq.curTick() + seq.powerUpTime()
               + seq.powerDownTime() + 2 * nv.saveDuration()
               + milliseconds(10) + extra);
    }
};

TEST(PowerDomain, CutRunsHooksThenDevicesThenRails)
{
    DomainRig rig;
    bool hook_ran = false;
    rig.domain.addCutHook([&] {
        hook_ran = true;
        // At hook time nothing downstream has been told yet: the
        // module is still serving and the rails still hold.
        EXPECT_EQ(rig.nv.state(), mem::NvdimmDevice::State::normal);
        EXPECT_NE(rig.seq.state(),
                  PowerSequencer::State::rampingDown);
    });
    rig.domain.powerCut();
    EXPECT_TRUE(hook_ran);
    EXPECT_FALSE(rig.domain.powered());
    // The module got its early-warning and is streaming to flash
    // while the rails discharge.
    EXPECT_EQ(rig.nv.state(), mem::NvdimmDevice::State::saving);
    EXPECT_EQ(rig.seq.state(), PowerSequencer::State::rampingDown);

    // A second cut while dark is a no-op.
    rig.domain.powerCut();
    EXPECT_EQ(rig.domain.domainStats().cuts.value(), 1.0);
}

TEST(PowerDomain, RestoreRampsRailsThenDevicesThenReady)
{
    DomainRig rig;
    rig.nv.image().write64(0x80, 0xABCDu);
    rig.domain.powerCut();
    rig.settle(); // save completes, rails down

    bool done = false, ok = false;
    rig.domain.powerRestore([&](bool k) {
        done = true;
        ok = k;
    });
    EXPECT_TRUE(rig.domain.restoring());
    rig.settle();
    EXPECT_TRUE(done);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(rig.domain.powered());
    EXPECT_TRUE(rig.seq.isOn());
    // The module finished its restore before the domain reported
    // ready, and the contents came back.
    EXPECT_EQ(rig.nv.state(), mem::NvdimmDevice::State::normal);
    EXPECT_EQ(rig.nv.restoreOutcome(), mem::RestoreOutcome::clean);
    EXPECT_EQ(rig.nv.image().read64(0x80), 0xABCDu);
    EXPECT_EQ(rig.domain.domainStats().restores.value(), 1.0);
}

TEST(PowerDomain, ShortBrownoutRidesThroughOnHoldup)
{
    DomainRig rig;
    ASSERT_TRUE(rig.seq.ridesThrough(rig.seq.holdupTime()));
    rig.domain.brownout(rig.seq.holdupTime());
    EXPECT_TRUE(rig.domain.powered());
    EXPECT_EQ(rig.nv.state(), mem::NvdimmDevice::State::normal);
    EXPECT_EQ(rig.domain.domainStats().brownoutsRidden.value(), 1.0);
    EXPECT_EQ(rig.domain.domainStats().cuts.value(), 0.0);
}

TEST(PowerDomain, LongBrownoutIsAnOutageAndDelaysRestore)
{
    DomainRig rig;
    const Tick dip = rig.seq.holdupTime() * 4;
    const Tick dark_until = rig.eq.curTick() + dip;
    rig.domain.brownout(dip);
    EXPECT_FALSE(rig.domain.powered());
    EXPECT_EQ(rig.domain.domainStats().brownoutOutages.value(), 1.0);
    EXPECT_EQ(rig.domain.inputGoodAt(), dark_until);

    // Ask for power back immediately: the domain must wait for the
    // input before it even starts ramping.
    Tick done_at = 0;
    rig.domain.powerRestore([&](bool ok) {
        EXPECT_TRUE(ok);
        done_at = rig.eq.curTick();
    });
    rig.settle(dip);
    EXPECT_GE(done_at, dark_until + rig.seq.powerUpTime());
}

TEST(PowerDomain, CutDuringRestoreFailsItThenRetrySucceeds)
{
    DomainRig rig;
    rig.domain.powerCut();
    rig.settle();

    bool done = false, ok = true;
    rig.domain.powerRestore([&](bool k) {
        done = true;
        ok = k;
    });
    // Let the ramp get underway, then pull the plug again.
    rig.eq.run(rig.eq.curTick() + rig.seq.powerUpTime() / 2);
    rig.domain.powerCut();
    rig.eq.run(rig.eq.curTick() + 1000);
    EXPECT_TRUE(done);
    EXPECT_FALSE(ok);
    EXPECT_GE(rig.domain.domainStats().failedRestores.value(), 1.0);
    rig.settle();

    bool done2 = false, ok2 = false;
    rig.domain.powerRestore([&](bool k) {
        done2 = true;
        ok2 = k;
    });
    rig.settle();
    EXPECT_TRUE(done2);
    EXPECT_TRUE(ok2);
    EXPECT_TRUE(rig.domain.powered());
}

/** A module that never comes back: every poll sees it not ready,
 *  and it records when each poll looked. */
class NeverReadyDevice : public mem::DramDevice
{
  public:
    using DramDevice::DramDevice;

    bool
    ready() const override
    {
        polls.push_back(curTick());
        return false;
    }

    mutable std::vector<Tick> polls;
};

TEST(PowerDomain, RestoreTimesOutWhenADeviceNeverGetsReady)
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    stats::StatGroup root{"root"};
    PowerSequencer seq("seq", eq, nest, &root, contuttoRails());
    PowerDomain domain("domain", eq, nest, &root, seq);
    NeverReadyDevice dev("dev", eq, nest, &root, 64 * KiB);
    domain.attachDevice(&dev);

    domain.powerCut();
    eq.run(eq.curTick() + seq.powerDownTime() + milliseconds(1));
    ASSERT_TRUE(dev.polls.empty());

    bool done = false, ok = true;
    Tick done_at = 0;
    domain.powerRestore([&](bool k) {
        done = true;
        ok = k;
        done_at = eq.curTick();
    });
    eq.run(eq.curTick() + seq.powerUpTime() + seconds(31));

    ASSERT_TRUE(done);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(domain.powered());
    EXPECT_FALSE(domain.restoring());
    EXPECT_EQ(domain.domainStats().failedRestores.value(), 1.0);
    EXPECT_EQ(domain.domainStats().restores.value(), 0.0);

    // The first poll is the moment the rails came up; the poll that
    // gives up is the first one at or past the 30 s budget, so at
    // most one (capped) poll interval late.
    ASSERT_GE(dev.polls.size(), 2u);
    const Tick rails_up = dev.polls.front();
    EXPECT_EQ(dev.polls.back(), done_at);
    EXPECT_GE(done_at - rails_up, seconds(30));
    EXPECT_LT(done_at - rails_up, seconds(30) + milliseconds(1));
    EXPECT_LT(dev.polls[dev.polls.size() - 2] - rails_up, seconds(30));

    // Backoff: 1 us, doubling each poll, capped at 1 ms.
    Tick expect = microseconds(1);
    for (std::size_t i = 1; i < dev.polls.size(); ++i) {
        ASSERT_EQ(dev.polls[i] - dev.polls[i - 1], expect)
            << "poll " << i;
        expect = std::min(expect * 2, milliseconds(1));
    }
}

} // namespace
