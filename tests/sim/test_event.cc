/** @file Unit tests for the event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event.hh"

using namespace contutto;

namespace
{

EventFunctionWrapper
record(std::vector<int> &log, int id)
{
    return EventFunctionWrapper([&log, id] { log.push_back(id); },
                                "record");
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTiesBeforeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    EventFunctionWrapper low([&] { log.push_back(1); }, "low",
                             Event::statPriority);
    EventFunctionWrapper high([&] { log.push_back(2); }, "high",
                              Event::clockPriority);
    eq.schedule(&low, 10);
    eq.schedule(&high, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, RunLimitStopsBeforeFutureEvents)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 1000);
    Tick reached = eq.run(500);
    EXPECT_EQ(reached, 500u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanRescheduleThemselves)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper *tickp = nullptr;
    EventFunctionWrapper tick(
        [&] {
            if (++count < 5)
                eq.schedule(tickp, eq.curTick() + 10);
        },
        "tick");
    tickp = &tick;
    eq.schedule(&tick, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    EXPECT_TRUE(eq.empty());
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(&b);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.eventsProcessed(), 1u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SameTickRescheduleIsOrderPreservingNoop)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    // Rearming a at its own tick must NOT move it behind b.
    eq.reschedule(&a, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.counters().rescheduleNoops, 1u);
}

TEST(EventQueue, FarFutureEventsCrossTheWheelHorizon)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    // b lands exactly on the horizon, c far past it; both take the
    // overflow path and must interleave correctly with near a.
    eq.schedule(&c, 5 * EventQueue::wheelSpan + 3);
    eq.schedule(&b, EventQueue::wheelSpan);
    eq.schedule(&a, EventQueue::wheelSpan - 1);
    EXPECT_EQ(eq.counters().overflowSpills, 2u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 5 * EventQueue::wheelSpan + 3);
}

TEST(EventQueue, OverflowPullPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    auto far = record(log, 1);
    auto near = record(log, 2);
    const Tick meet = EventQueue::wheelSpan + 100;
    // far is scheduled first (smaller order) from tick 0, beyond the
    // horizon. kick fires one bucket later — inside the horizon of
    // `meet` — and schedules near at the same tick, into the bucket
    // *before* the queue pulls far across. The pull must place far
    // (original order) ahead of near despite arriving in the bucket
    // second.
    EventFunctionWrapper kick(
        [&] {
            log.push_back(0);
            eq.schedule(&near, meet);
        },
        "kick");
    eq.schedule(&far, meet);
    eq.schedule(&kick, EventQueue::wheelGrain + 200);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.counters().overflowPulls, 1u);
}

TEST(EventQueue, DeschedulingOverflowResidentRemovesItAtOnce)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    auto c = record(log, 3);
    eq.schedule(&a, 2 * EventQueue::wheelSpan);
    eq.schedule(&b, 3 * EventQueue::wheelSpan);
    eq.schedule(&c, 4 * EventQueue::wheelSpan);
    eq.deschedule(&a); // the heap top
    eq.deschedule(&c); // the heap tail
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 3 * EventQueue::wheelSpan);
    eq.schedule(&a, 5 * EventQueue::wheelSpan);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleAcrossTheHorizon)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 4 * EventQueue::wheelSpan);
    eq.schedule(&b, 5 * EventQueue::wheelSpan);
    eq.reschedule(&a, 10); // overflow -> wheel
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(eq.nextEventTick(), 10u);
    eq.reschedule(&b, 3 * EventQueue::wheelSpan); // overflow -> overflow
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 3 * EventQueue::wheelSpan);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, OverflowHeapRemovalKeepsFiringOrder)
{
    // Deschedules and reschedules at random heap positions: the entry
    // that fills a removed slot must settle upward or downward, so the
    // heap top is always the next to fire. Distinct ticks lie a full
    // horizon apart, so a misplaced entry is never rescued by a pull;
    // few of them and three priorities make ties common.
    constexpr int kEvents = 256;
    EventQueue eq;
    std::mt19937_64 rng(16);
    std::vector<int> log;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < kEvents; ++i)
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&log, i] { log.push_back(i); }, "far", 10 + 40 * (i % 3)));

    struct Key
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        int id;
    };
    std::vector<Key> keys(kEvents);
    std::uint64_t seq = 0;
    auto arm = [&](int i) {
        const Tick when =
            Tick(2 + rng() % 48) * EventQueue::wheelSpan;
        keys[std::size_t(i)] = Key{when, evs[std::size_t(i)]->priority(),
                                   seq++, i};
        eq.schedule(evs[std::size_t(i)].get(), when);
    };
    for (int i = 0; i < kEvents; ++i)
        arm(i);
    for (int k = 0; k < 4000; ++k) {
        const int i = int(rng() % kEvents);
        if (evs[std::size_t(i)]->scheduled())
            eq.deschedule(evs[std::size_t(i)].get());
        if (rng() % 3 != 0)
            arm(i);
        Tick first = maxTick;
        for (int j = 0; j < kEvents; ++j)
            if (evs[std::size_t(j)]->scheduled())
                first = std::min(first, keys[std::size_t(j)].when);
        ASSERT_EQ(eq.nextEventTick(), first) << "after op " << k;
    }

    std::vector<Key> live;
    for (int i = 0; i < kEvents; ++i)
        if (evs[std::size_t(i)]->scheduled())
            live.push_back(keys[std::size_t(i)]);
    std::sort(live.begin(), live.end(), [](const Key &a, const Key &b) {
        return std::tie(a.when, a.prio, a.seq)
               < std::tie(b.when, b.prio, b.seq);
    });
    std::vector<int> expect;
    for (const Key &k : live)
        expect.push_back(k.id);
    EXPECT_EQ(eq.size(), live.size());
    eq.run();
    EXPECT_EQ(log, expect);
}

TEST(EventQueue, DescheduledOverflowResidentMayBeDestroyed)
{
    // A model that deschedules a far-future timer and then goes away
    // (a LinkTrainer after training) must leave nothing in the queue
    // that still points at the dead event.
    EventQueue eq;
    std::vector<int> log;
    auto later = record(log, 2);
    {
        auto timer = std::make_unique<EventFunctionWrapper>(
            [&log] { log.push_back(1); }, "timer");
        eq.schedule(timer.get(), 2 * EventQueue::wheelSpan);
        eq.schedule(&later, 3 * EventQueue::wheelSpan);
        eq.deschedule(timer.get());
    }
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CountersTrackCoreActivity)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.deschedule(&b);
    eq.run();
    const auto &c = eq.counters();
    EXPECT_EQ(c.schedules, 2u);
    EXPECT_EQ(c.deschedules, 1u);
    EXPECT_EQ(c.processed, 1u);
    EXPECT_EQ(c.liveHighWater, 2u);
    EXPECT_EQ(c.bucketHighWater, 2u);
}

// ---- Coarse-bucket wheel edge cases. A bucket spans wheelGrain
// ticks, so one bucket can hold several ticks and must keep them in
// (tick, priority, order) order. ----

constexpr Tick grain = EventQueue::wheelGrain;
constexpr Tick span = EventQueue::wheelSpan;
constexpr Tick slots = span / grain;

TEST(EventQueue, TwoTicksInOneBucketLaterTickScheduledFirst)
{
    static_assert(grain > 8, "test needs two ticks in one bucket");
    EventQueue eq;
    std::vector<int> log;
    auto late = record(log, 2);
    auto early = record(log, 1);
    eq.schedule(&late, 5 * grain + 7);
    eq.schedule(&early, 5 * grain + 3);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.counters().bucketHighWater, 2u);
    EXPECT_EQ(eq.counters().overflowSpills, 0u);
}

TEST(EventQueue, MixedPrioritiesAcrossTicksInOneBucket)
{
    EventQueue eq;
    std::vector<int> log;
    const Tick t1 = 3 * grain + 1, t2 = 3 * grain + 2;
    auto mk = [&](int id, int prio) {
        return std::make_unique<EventFunctionWrapper>(
            [&log, id] { log.push_back(id); }, "mixed", prio);
    };
    // Expected order: t1 clock, t1 default (x2, insertion order),
    // t1 stat, then t2 clock, t2 stat.
    auto t2stat = mk(6, Event::statPriority);
    auto t1def = mk(2, Event::defaultPriority);
    auto t2clk = mk(5, Event::clockPriority);
    auto t1stat = mk(4, Event::statPriority);
    auto t1def2 = mk(3, Event::defaultPriority);
    auto t1clk = mk(1, Event::clockPriority);
    eq.schedule(t2stat.get(), t2);
    eq.schedule(t1def.get(), t1);
    eq.schedule(t2clk.get(), t2);
    eq.schedule(t1stat.get(), t1);
    eq.schedule(t1def2.get(), t1);
    eq.schedule(t1clk.get(), t1);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, HorizonIsSlotDistanceFromUnalignedCurTick)
{
    EventQueue eq;
    std::vector<int> log;
    // Park the clock mid-bucket: halfway into slot 3.
    auto park = record(log, 0);
    const Tick cur = 3 * grain + grain / 2;
    eq.schedule(&park, cur);
    eq.run();
    ASSERT_EQ(eq.curTick(), cur);

    // The last tick of the last admitted slot is wheel-resident. The
    // first tick of the next slot is fewer than wheelSpan ticks
    // ahead, yet spills: its slot is a full wheel past curTick's.
    auto lastIn = record(log, 1);
    auto firstOut = record(log, 2);
    const Tick lastInTick = (3 + slots) * grain - 1;
    const Tick firstOutTick = (3 + slots) * grain;
    ASSERT_LT(firstOutTick - cur, span);
    eq.schedule(&lastIn, lastInTick);
    EXPECT_EQ(eq.counters().overflowSpills, 0u);
    eq.schedule(&firstOut, firstOutTick);
    EXPECT_EQ(eq.counters().overflowSpills, 1u);

    // firstOut aliases the bucket of curTick's slot: it must not fire
    // before lastIn.
    auto near = record(log, 3);
    eq.schedule(&near, cur + 1);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 3, 1, 2}));
    EXPECT_EQ(eq.counters().overflowPulls, 1u);
}

TEST(EventQueue, RunLimitStopsMidBucketThenScheduleIntoIt)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 4);
    const Tick base = 2 * grain;
    eq.schedule(&a, base + 1);
    eq.schedule(&b, base + grain - 1);
    EXPECT_EQ(eq.run(base + 5), base + 5);
    EXPECT_EQ(log, (std::vector<int>{1}));

    // Schedule into the bucket the clock stopped in: at curTick and
    // between curTick and the resident tail.
    auto c = record(log, 3);
    auto d = record(log, 2);
    eq.schedule(&c, base + 6);
    eq.schedule(&d, base + 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.curTick(), base + grain - 1);
}

TEST(EventQueue, OverflowPullLandsBehindSameTickResidents)
{
    EventQueue eq;
    std::vector<int> log;
    const Tick meet = span + 3 * grain + 9;
    auto far = record(log, 2);
    auto mk = [&](int id, int prio) {
        return std::make_unique<EventFunctionWrapper>(
            [&log, id] { log.push_back(id); }, "resident", prio);
    };
    auto clk = mk(1, Event::clockPriority);
    auto dflt = mk(3, Event::defaultPriority);
    auto stat = mk(4, Event::statPriority);
    // far spills from tick 0. kick runs once meet is in the horizon
    // and schedules three same-tick residents before the next peek
    // pulls far in. far (oldest order, default priority) must land
    // behind the clock-priority resident and ahead of the others.
    EventFunctionWrapper kick(
        [&] {
            eq.schedule(stat.get(), meet);
            eq.schedule(dflt.get(), meet);
            eq.schedule(clk.get(), meet);
        },
        "kick");
    eq.schedule(&far, meet);
    eq.schedule(&kick, 4 * grain);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.counters().overflowSpills, 1u);
    EXPECT_EQ(eq.counters().overflowPulls, 1u);
}

// A reserved order places an event where a schedule() at the
// reservation would have: behind same-tick events scheduled before
// it, ahead of those scheduled after, wherever it resides.
TEST(EventQueue, ReservedOrderFiresBetweenEarlierAndLaterSchedules)
{
    for (const Tick meet : {Tick(5 * grain + 3), Tick(3 * span + 3)}) {
        EventQueue eq;
        std::vector<int> log;
        auto before = record(log, 1);
        auto reserved = record(log, 2);
        auto after = record(log, 3);
        eq.schedule(&before, meet);
        const std::uint64_t order = eq.reserveOrder();
        eq.schedule(&after, meet);
        eq.scheduleReserved(&reserved, meet, order);
        EXPECT_EQ(eq.counters().schedules, 3u);
        eq.run();
        EXPECT_EQ(log, (std::vector<int>{1, 2, 3})) << "at " << meet;
        EXPECT_EQ(eq.counters().overflowSpills,
                  meet > span ? 3u : 0u);
    }
}

TEST(EventQueue, ReservedOrderSurvivesDescheduleAndRearm)
{
    for (const Tick meet : {Tick(5 * grain + 3), Tick(3 * span + 3)}) {
        EventQueue eq;
        std::vector<int> log;
        auto before = record(log, 1);
        auto reserved = record(log, 2);
        auto after = record(log, 3);
        auto later = record(log, 4);
        const std::uint64_t order = eq.reserveOrder();
        eq.scheduleReserved(&reserved, meet + 1, order);
        eq.schedule(&before, meet);
        eq.deschedule(&reserved);
        eq.schedule(&after, meet);
        // Re-armed at the tick of the others with the order taken
        // before any of them: it now fires first at that tick, and
        // ahead of a later arrival too.
        eq.scheduleReserved(&reserved, meet, order);
        eq.schedule(&later, meet);
        eq.run();
        EXPECT_EQ(log, (std::vector<int>{2, 1, 3, 4})) << "at " << meet;
        EXPECT_EQ(eq.counters().deschedules, 1u);
    }
}

TEST(EventQueue, DispatchLimitIsTheEnclosingRunLimit)
{
    EventQueue eq;
    std::vector<Tick> seen;
    EventFunctionWrapper probe([&] { seen.push_back(eq.dispatchLimit()); },
                               "probe");
    eq.schedule(&probe, 10);
    eq.run(25);
    eq.schedule(&probe, 30);
    eq.step();
    eq.schedule(&probe, 40);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{25, maxTick, maxTick}));
}

// Regression: run(limit) with a limit behind curTick() used to set
// the clock back to the limit. Wheel residents admitted against the
// later slot then lay beyond the horizon, and one aliasing an early
// bucket fired ahead of an earlier event.
TEST(EventQueue, RunNeverMovesTimeBackwards)
{
    EventQueue eq;
    std::vector<int> log;
    auto sentinel = record(log, 3);
    eq.schedule(&sentinel, 4 * span);
    const Tick cur = 10 * grain;
    EXPECT_EQ(eq.run(cur), cur);

    auto edge = record(log, 2);
    eq.schedule(&edge, (10 + slots - 1) * grain); // last admitted slot
    EXPECT_EQ(eq.counters().overflowSpills, 1u);

    EXPECT_EQ(eq.run(0), cur);
    EXPECT_EQ(eq.curTick(), cur);
    EXPECT_EQ(eq.run(cur - 1), cur);
    EXPECT_EQ(eq.curTick(), cur);

    auto early = record(log, 1);
    eq.schedule(&early, 20 * grain);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, OneShotPoolRecyclesSlots)
{
    EventQueue eq;
    int fired = 0;
    // A chain far longer than one pool chunk with one one-shot live
    // at a time: the first allocation misses and grows the pool, and
    // every subsequent one must reuse the freed slot.
    std::function<void()> next = [&] {
        if (++fired < 300)
            OneShotEvent::schedule(eq, eq.curTick() + 1, [&] {
                next();
            });
    };
    OneShotEvent::schedule(eq, 1, [&] { next(); });
    eq.run();
    EXPECT_EQ(fired, 300);
    const auto &c = eq.counters();
    EXPECT_EQ(c.oneShotPoolMisses, 1u);
    EXPECT_EQ(c.oneShotPoolHits, 299u);
}

TEST(EventQueue, OneShotCallbackCanScheduleOneShots)
{
    EventQueue eq;
    std::vector<int> log;
    OneShotEvent::schedule(eq, 10, [&] {
        log.push_back(1);
        OneShotEvent::schedule(eq, eq.curTick() + 5,
                               [&] { log.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueue, DestroyingTheQueueReleasesPendingOneShots)
{
    auto payload = std::make_shared<int>(7);
    std::weak_ptr<int> watch = payload;
    bool fired = false;
    {
        EventQueue eq;
        OneShotEvent::schedule(eq, 10, [&fired, p = payload] {
            fired = *p == 7;
        });
        OneShotEvent::schedule(eq, 3 * EventQueue::wheelSpan,
                               [p = std::move(payload)] { (void)p; });
    }
    EXPECT_FALSE(fired);
    EXPECT_TRUE(watch.expired());
}

TEST(InplaceFunction, InvokesAndMoves)
{
    int calls = 0;
    InplaceFunction<void(), 32> f([&calls] { ++calls; });
    EXPECT_TRUE(static_cast<bool>(f));
    f();
    InplaceFunction<void(), 32> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    EXPECT_EQ(calls, 2);
    g.reset();
    EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InplaceFunction, DestroysCaptures)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        InplaceFunction<int(), 32> f(
            [token] { return *token; });
        token.reset();
        EXPECT_EQ(f(), 7);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    auto b = record(log, 2);
    eq.schedule(&a, 100);
    eq.run();
    EXPECT_DEATH(eq.schedule(&b, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = record(log, 1);
    eq.schedule(&a, 100);
    EXPECT_DEATH(eq.schedule(&a, 200), "twice");
    eq.deschedule(&a);
}

} // namespace
