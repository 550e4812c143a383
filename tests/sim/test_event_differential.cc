/**
 * @file
 * Differential determinism test for the ladder event queue.
 *
 * Drives 1M+ randomized schedule/deschedule/reschedule/step/run ops,
 * some of them schedules at an insertion order reserved earlier,
 * through the real EventQueue and, in lock-step, through a minimal
 * reference implementation (binary heap + lazy deletion — the
 * pre-ladder structure) that follows the same documented contract:
 * (tick, priority, insertion order) firing, and same-tick reschedule
 * as an order-preserving no-op. Any divergence in the fired
 * (tick, id, priority) sequence fails the test, covering the wheel,
 * the overflow heap, horizon crossings, and pull migration under
 * load far messier than the unit tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event.hh"

using namespace contutto;

namespace
{

struct Fired
{
    Tick when;
    int id;
    int prio;

    bool
    operator==(const Fired &o) const
    {
        return when == o.when && id == o.id && prio == o.prio;
    }
};

class RecEvent : public Event
{
  public:
    RecEvent(std::vector<Fired> &log, EventQueue &eq, int id,
             int prio)
        : Event(prio), log_(&log), eq_(&eq), id_(id)
    {}

    void
    process() override
    {
        log_->push_back(Fired{eq_->curTick(), id_, priority()});
    }

    const char *name() const override { return "rec"; }

  private:
    std::vector<Fired> *log_;
    EventQueue *eq_;
    int id_;
};

/** The reference: a plain heap with generation-based lazy deletion. */
class RefQueue
{
  public:
    explicit RefQueue(std::size_t ids) : st_(ids) {}

    Tick cur() const { return cur_; }
    bool scheduled(int id) const { return st_[id].sched; }
    Tick when(int id) const { return st_[id].when; }

    void
    schedule(int id, Tick when, int prio)
    {
        scheduleReserved(id, when, prio, reserveOrder());
    }

    std::uint64_t reserveOrder() { return order_++; }

    void
    scheduleReserved(int id, Tick when, int prio, std::uint64_t order)
    {
        St &s = st_[std::size_t(id)];
        ASSERT_FALSE(s.sched);
        s.sched = true;
        s.when = when;
        ++s.gen;
        heap_.push(Entry{when, prio, order, id, s.gen});
        ++live_;
    }

    void
    deschedule(int id)
    {
        St &s = st_[std::size_t(id)];
        ASSERT_TRUE(s.sched);
        s.sched = false;
        ++s.gen;
        --live_;
    }

    void
    reschedule(int id, Tick when, int prio)
    {
        St &s = st_[std::size_t(id)];
        if (s.sched) {
            if (s.when == when)
                return; // mirror the documented no-op fast path
            deschedule(id);
        }
        schedule(id, when, prio);
    }

    std::size_t size() const { return live_; }

    /** EventQueue::run(limit): fire through @p limit, never rewind. */
    Tick
    run(Tick limit, std::vector<Fired> &log)
    {
        for (;;) {
            skipStale();
            if (heap_.empty())
                return cur_;
            if (heap_.top().when > limit) {
                cur_ = std::max(cur_, limit);
                return cur_;
            }
            step(log);
        }
    }

    bool
    step(std::vector<Fired> &log)
    {
        skipStale();
        if (heap_.empty())
            return false;
        Entry e = heap_.top();
        heap_.pop();
        cur_ = e.when;
        st_[std::size_t(e.id)].sched = false;
        --live_;
        log.push_back(Fired{e.when, e.id, e.prio});
        return true;
    }

  private:
    struct Entry
    {
        Tick when;
        int prio;
        std::uint64_t order;
        int id;
        std::uint64_t gen;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return order > o.order;
        }
    };

    struct St
    {
        bool sched = false;
        Tick when = 0;
        std::uint64_t gen = 0;
    };

    void
    skipStale()
    {
        while (!heap_.empty()) {
            const Entry &top = heap_.top();
            const St &s = st_[std::size_t(top.id)];
            if (s.sched && s.gen == top.gen)
                return;
            heap_.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap_;
    std::vector<St> st_;
    Tick cur_ = 0;
    std::uint64_t order_ = 0;
    std::size_t live_ = 0;
};

TEST(EventQueueDifferential, MillionOpFuzzMatchesReferenceHeap)
{
    constexpr int kEvents = 512;
    constexpr std::uint64_t kOps = 1'200'000;
    constexpr Tick span = EventQueue::wheelSpan;
    constexpr Tick grain = EventQueue::wheelGrain;

    EventQueue eq;
    RefQueue ref(kEvents);
    std::vector<Fired> logNew, logRef;
    logNew.reserve(kOps);
    logRef.reserve(kOps);

    // mt19937_64 output is fully specified by the standard, so the
    // op sequence is identical on every platform; raw modulo keeps
    // it free of implementation-defined distributions.
    std::mt19937_64 rng(0xC01170770ULL);

    static constexpr int prios[] = {Event::clockPriority,
                                    Event::defaultPriority,
                                    Event::statPriority};
    std::vector<std::unique_ptr<RecEvent>> evs;
    evs.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i)
        evs.push_back(std::make_unique<RecEvent>(
            logNew, eq, i, prios[std::size_t(rng() % 3)]));

    // Insertion orders reserved per event (real queue, reference),
    // spent by that event's next plain schedule op.
    std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>>
        reserved(kEvents);

    auto pickDelta = [&](std::uint64_t r) -> Tick {
        const std::uint64_t d = (r >> 16) & 0xFFFFFFFF;
        switch ((r >> 52) % 10) {
          case 6: // one tick either side of a bucket boundary
            return Tick(d % 64) * grain + grain - 1 + Tick((d >> 6) % 3);
          case 7: // either side of the horizon edge
            return span - 2 * grain + Tick(d % (4 * grain));
          case 8:
            return Tick(d % std::uint64_t(span)); // anywhere on wheel
          case 9: // far future: overflow heap
            return span + Tick(d % std::uint64_t(8 * span));
          default: // simulator-realistic near future
            return Tick(d % 4096);
        }
    };

    for (std::uint64_t i = 0; i < kOps; ++i) {
        const std::uint64_t r = rng();
        const int op = int(r % 100);
        const int id = int((r >> 8) % kEvents);
        RecEvent &ev = *evs[std::size_t(id)];

        if (op < 50) {
            if (!ev.scheduled()) {
                const Tick when = eq.curTick() + pickDelta(r);
                auto &res = reserved[std::size_t(id)];
                if (res) {
                    eq.scheduleReserved(&ev, when, res->first);
                    ref.scheduleReserved(id, when, ev.priority(),
                                         res->second);
                    // Sometimes keep it, for a deschedule and re-arm
                    // at the same order.
                    if ((r >> 36) % 2 == 0)
                        res.reset();
                } else {
                    eq.schedule(&ev, when);
                    ref.schedule(id, when, ev.priority());
                }
            }
        } else if (op < 54) {
            auto &res = reserved[std::size_t(id)];
            if (!res)
                res.emplace(eq.reserveOrder(), ref.reserveOrder());
        } else if (op < 60) {
            if (ev.scheduled()) {
                eq.deschedule(&ev);
                ref.deschedule(id);
            }
        } else if (op < 78) {
            Tick when = eq.curTick() + pickDelta(r);
            if (ev.scheduled() && (r >> 32) % 4 == 0)
                when = ev.when(); // exercise the no-op fast path
            eq.reschedule(&ev, when);
            ref.reschedule(id, when, ev.priority());
        } else if (op >= 96) {
            // run(limit) to a mid-bucket tick, sometimes one already
            // behind curTick (which must not rewind the clock).
            const Tick cur = eq.curTick();
            const Tick offset = Tick((r >> 20) % (2 * grain));
            const Tick limit = (r >> 40) % 8 == 0
                                   ? cur - std::min(cur, offset)
                                   : cur + offset;
            const std::size_t before = logNew.size();
            const Tick a = eq.run(limit);
            const Tick b = ref.run(limit, logRef);
            ASSERT_EQ(a, b) << "run(" << limit << ") at op " << i;
            ASSERT_EQ(logNew.size(), logRef.size());
            for (std::size_t k = before; k < logNew.size(); ++k)
                ASSERT_EQ(logNew[k], logRef[k])
                    << "run divergence at op " << i;
        } else {
            const bool a = eq.step();
            const bool b = ref.step(logRef);
            ASSERT_EQ(a, b) << "step disagree at op " << i;
            if (a) {
                ASSERT_EQ(logNew.back(), logRef.back())
                    << "divergence at op " << i << ": new=("
                    << logNew.back().when << "," << logNew.back().id
                    << ") ref=(" << logRef.back().when << ","
                    << logRef.back().id << ")";
            }
        }
        ASSERT_EQ(eq.size(), ref.size());
    }

    // Drain both queues completely.
    for (;;) {
        const bool a = eq.step();
        const bool b = ref.step(logRef);
        ASSERT_EQ(a, b);
        if (!a)
            break;
    }

    ASSERT_EQ(logNew.size(), logRef.size());
    ASSERT_EQ(logNew, logRef);
    EXPECT_EQ(eq.curTick(), ref.cur());
    EXPECT_GT(logNew.size(), 100000u);
}

} // namespace
