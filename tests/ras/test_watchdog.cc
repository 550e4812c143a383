/** @file Link watchdog escalation-ladder tests. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "firmware/error_log.hh"
#include "ras/watchdog.hh"
#include "sim/event.hh"

using namespace contutto;
using namespace contutto::ras;

namespace
{

struct WatchdogBench
{
    EventQueue eq;
    ClockDomain nest{"nest", 500};
    stats::StatGroup root{"root"};
    firmware::ErrorLog log;
    LinkWatchdog dog;
    std::vector<std::string> calls;

    WatchdogBench() : dog("dog", eq, nest, &root)
    {
        LinkWatchdog::Actions a;
        a.retrain = [this] { calls.push_back("retrain"); };
        a.spareLane = [this] { calls.push_back("spare"); };
        a.degrade = [this] { calls.push_back("degrade"); };
        a.offline = [this] { calls.push_back("offline"); };
        dog.setActions(std::move(a));
        dog.attachErrorLog(&log);
    }

    /** Feed @p n replays to the watchdog at tick @p t. */
    void
    replaysAt(Tick t, unsigned n)
    {
        OneShotEvent::schedule(eq, t, [this, n] {
            for (unsigned i = 0; i < n; ++i)
                dog.noteReplay();
        });
    }
};

TEST(Watchdog, SparseReplaysDoNotEscalate)
{
    WatchdogBench b;

    // One replay every 3 us: never 4 inside any 2 us window.
    for (int i = 0; i < 10; ++i)
        b.replaysAt(microseconds(3) * Tick(i + 1), 1);
    b.eq.run();

    EXPECT_EQ(b.dog.escalationLevel(), 0u);
    EXPECT_EQ(b.dog.watchdogStats().replaysObserved.value(), 10.0);
    EXPECT_EQ(b.dog.watchdogStats().stormsDetected.value(), 0.0);
    EXPECT_TRUE(b.calls.empty());
}

TEST(Watchdog, StormTriggersRetrainFirst)
{
    WatchdogBench b;
    b.replaysAt(microseconds(1), 4);
    b.eq.run();

    EXPECT_EQ(b.dog.escalationLevel(), 1u);
    EXPECT_EQ(b.dog.watchdogStats().retrains.value(), 1.0);
    ASSERT_EQ(b.calls.size(), 1u);
    EXPECT_EQ(b.calls[0], "retrain");
    // A retrain is informational, not a fault.
    EXPECT_EQ(b.log.countAtLeast(firmware::Severity::recoverable),
              std::size_t(0));
    EXPECT_EQ(b.log.size(), 1u);
}

TEST(Watchdog, CooldownGatesBackToBackEscalations)
{
    WatchdogBench b;

    b.replaysAt(microseconds(1), 4); // storm -> level 1
    b.replaysAt(microseconds(2), 4); // within cooldown: detected only
    b.eq.run();

    EXPECT_EQ(b.dog.escalationLevel(), 1u);
    EXPECT_EQ(b.dog.watchdogStats().stormsDetected.value(), 2.0);
    ASSERT_EQ(b.calls.size(), 1u);
}

TEST(Watchdog, LadderRunsRetrainSpareDegradeOffline)
{
    WatchdogBench b;

    // A storm every 20 us, each past the previous cooldown.
    for (int i = 0; i < 6; ++i)
        b.replaysAt(microseconds(20) * Tick(i + 1), 4);
    b.eq.run();

    EXPECT_EQ(b.dog.escalationLevel(), 4u);
    std::vector<std::string> want = {"retrain", "spare", "degrade",
                                     "offline"};
    EXPECT_EQ(b.calls, want);
    EXPECT_EQ(b.dog.watchdogStats().offlines.value(), 1.0);

    // Severities land in the FSP log: info, 2x recoverable, 1x
    // unrecoverable, and the component is deconfigured.
    EXPECT_EQ(b.log.size(), 4u);
    EXPECT_EQ(b.log.countAtLeast(firmware::Severity::recoverable),
              std::size_t(3));
    EXPECT_EQ(b.log.countAtLeast(firmware::Severity::unrecoverable),
              std::size_t(1));
    EXPECT_TRUE(b.log.isDeconfigured("dog"));
}

TEST(Watchdog, ResetDeclaresHealthy)
{
    WatchdogBench b;
    b.replaysAt(microseconds(1), 8);
    b.eq.run();
    EXPECT_GE(b.dog.escalationLevel(), 1u);

    b.dog.reset();
    EXPECT_EQ(b.dog.escalationLevel(), 0u);

    // The ladder restarts from retrain after a reset.
    b.calls.clear();
    b.replaysAt(b.eq.curTick() + microseconds(100), 4);
    b.eq.run();
    ASSERT_EQ(b.calls.size(), 1u);
    EXPECT_EQ(b.calls[0], "retrain");
}

} // namespace
