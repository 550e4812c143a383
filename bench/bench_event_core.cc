/**
 * @file
 * Event-core microbenchmark: ladder queue vs the pre-change heap.
 *
 * Embeds a faithful copy of the binary-heap queue this repository
 * used before the ladder rewrite (std::priority_queue entries, lazy
 * deletion via skipStale, heap-allocated one-shots, std::function
 * callbacks) and drives both cores through the same three
 * simulator-realistic scenarios:
 *
 *   clock-mix      self-rescheduling clocked components at the DMI /
 *                  nest / fabric periods, an ACK-timeout rearm that
 *                  hits the same-tick fast path on most fires, and
 *                  ~10% random deschedule/reschedule churn.
 *   oneshot-chain  chained deferred one-shot callbacks, the
 *                  dmi/mbs completion-hop pattern.
 *   far-timers     near-future traffic plus watchdog-style far
 *                  timers that are perpetually re-armed, exercising
 *                  overflow-heap removal (lazy in the legacy core,
 *                  eager in the ladder).
 *
 * Each scenario races the two cores in 5 pairs, alternating which
 * core runs first, and reports the median events/sec of each core
 * and the median of the per-pair new/legacy speedup ratios; one
 * short race alone can read far off on a noisy host. The ratio is
 * what CI gates on (machine-independent); absolute rates are
 * recorded for trend-watching. Use --stats-json=FILE to
 * capture the numbers for scripts/bench_gate.py, which checks the
 * ratios against bench/baselines/BENCH_event_core.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "bench_util.hh"
#include "sim/event.hh"

using namespace contutto;

namespace
{

// --------------------------------------------------------------------
// The pre-ladder event core, preserved verbatim in miniature so the
// comparison never goes stale as the real one evolves.
// --------------------------------------------------------------------

class LegacyQueue;

class LegacyEvent
{
  public:
    explicit LegacyEvent(int priority = Event::defaultPriority)
        : _priority(priority)
    {}
    virtual ~LegacyEvent() = default;
    virtual void process() = 0;

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class LegacyQueue;
    Tick _when = 0;
    std::uint64_t _order = 0;
    std::uint64_t _generation = 0;
    int _priority;
    bool _scheduled = false;
};

class LegacyWrapper : public LegacyEvent
{
  public:
    LegacyWrapper(std::function<void()> cb, std::string name,
                  int priority = Event::defaultPriority)
        : LegacyEvent(priority), cb_(std::move(cb)),
          name_(std::move(name))
    {}
    void process() override { cb_(); }

  private:
    std::function<void()> cb_;
    std::string name_;
};

class LegacyQueue
{
  public:
    Tick curTick() const { return _curTick; }
    std::uint64_t eventsProcessed() const { return _processed; }
    bool empty() const { return _live == 0; }

    void
    schedule(LegacyEvent *ev, Tick when)
    {
        ev->_when = when;
        ev->_order = _nextOrder++;
        ev->_scheduled = true;
        ++ev->_generation;
        _queue.push(Entry{when, ev->priority(), ev->_order, ev,
                          ev->_generation});
        ++_live;
    }

    void
    deschedule(LegacyEvent *ev)
    {
        ev->_scheduled = false;
        ++ev->_generation;
        --_live;
    }

    void
    reschedule(LegacyEvent *ev, Tick when)
    {
        if (ev->scheduled())
            deschedule(ev);
        schedule(ev, when);
    }

    bool
    step()
    {
        skipStale();
        if (_queue.empty())
            return false;
        Entry e = _queue.top();
        _queue.pop();
        _curTick = e.when;
        e.ev->_scheduled = false;
        --_live;
        ++_processed;
        e.ev->process();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t order;
        LegacyEvent *ev;
        std::uint64_t generation;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return order > o.order;
        }
    };

    void
    skipStale()
    {
        while (!_queue.empty()) {
            const Entry &top = _queue.top();
            if (top.ev->_generation == top.generation
                && top.ev->_scheduled)
                return;
            _queue.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        _queue;
    Tick _curTick = 0;
    std::uint64_t _nextOrder = 0;
    std::uint64_t _processed = 0;
    std::size_t _live = 0;
};

/** Heap-allocated self-deleting one-shot: the pre-pool shape. */
class LegacyOneShot : public LegacyEvent
{
  public:
    static void
    schedule(LegacyQueue &eq, Tick when, std::function<void()> fn,
             int priority = Event::defaultPriority)
    {
        eq.schedule(new LegacyOneShot(std::move(fn), priority), when);
    }

    void
    process() override
    {
        std::function<void()> fn = std::move(fn_);
        delete this;
        fn();
    }

  private:
    LegacyOneShot(std::function<void()> fn, int priority)
        : LegacyEvent(priority), fn_(std::move(fn))
    {}
    std::function<void()> fn_;
};

// --------------------------------------------------------------------
// Scenarios, templated over the core under test.
// --------------------------------------------------------------------

struct Xorshift
{
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    std::uint64_t
    operator()()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Clocked components + ACK-timeout rearm + deschedule churn. */
template <typename Q, typename Wrapper>
double
clockMix(std::uint64_t targetEvents)
{
    Q eq;
    Xorshift rnd;
    static constexpr Tick periods[3] = {125, 500, 4000};
    static constexpr Tick ackTimeout = 400000;
    static constexpr int kComps = 64;

    struct Comp
    {
        std::unique_ptr<Wrapper> tick;
        std::unique_ptr<Wrapper> timeout;
        Tick period = 0;
        Tick deadline = 0;
    };
    std::vector<Comp> comps(kComps);

    for (int i = 0; i < kComps; ++i) {
        Comp &c = comps[std::size_t(i)];
        c.period = periods[i % 3];
        c.deadline = ackTimeout;
        c.timeout = std::make_unique<Wrapper>(
            [&eq, &c] {
                c.deadline = eq.curTick() + ackTimeout;
                eq.schedule(c.timeout.get(), c.deadline);
            },
            "timeout");
        c.tick = std::make_unique<Wrapper>(
            [&eq, &c, &rnd, &comps] {
                eq.schedule(c.tick.get(), eq.curTick() + c.period);
                // The link-style rearm: the deadline only moves when
                // the window head changes (~1 in 8 fires); the other
                // seven hit the same-tick path.
                if (rnd() % 8 == 0)
                    c.deadline = eq.curTick() + ackTimeout;
                eq.reschedule(c.timeout.get(), c.deadline);
                // ~10% deschedule/reschedule churn on a random peer.
                if (rnd() % 10 == 0) {
                    Comp &p = comps[rnd() % kComps];
                    if (p.tick->scheduled()) {
                        eq.deschedule(p.tick.get());
                        eq.schedule(p.tick.get(),
                                    eq.curTick() + rnd() % 4096 + 1);
                    }
                }
            },
            "tick");
        eq.schedule(c.tick.get(), c.period);
        eq.schedule(c.timeout.get(), c.deadline);
    }

    const auto t0 = std::chrono::steady_clock::now();
    while (eq.eventsProcessed() < targetEvents && eq.step()) {
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (Comp &c : comps) {
        if (c.tick->scheduled())
            eq.deschedule(c.tick.get());
        if (c.timeout->scheduled())
            eq.deschedule(c.timeout.get());
    }
    return double(eq.eventsProcessed()) / seconds(t0, t1);
}

/** Chained deferred one-shot callbacks (completion hops). */
template <typename Q, typename OneShot>
double
oneShotChain(std::uint64_t targetEvents)
{
    Q eq;
    Xorshift rnd;
    static constexpr int kChains = 32;
    std::uint64_t fired = 0;

    // A realistic capture payload: a tag, an address, a few flags.
    struct Payload
    {
        std::uint64_t tag;
        std::uint64_t addr;
        std::uint32_t flags;
    };

    std::function<void(Payload)> hop = [&](Payload p) {
        ++fired;
        if (fired + kChains > targetEvents)
            return;
        Payload next{p.tag + 1, p.addr + 128, p.flags ^ 1};
        OneShot::schedule(eq, eq.curTick() + rnd() % 2000 + 1,
                          [&hop, next] { hop(next); });
    };

    for (int i = 0; i < kChains; ++i)
        OneShot::schedule(eq, Tick(i + 1),
                          [&hop, i] {
                              hop(Payload{std::uint64_t(i), 0, 0});
                          });

    const auto t0 = std::chrono::steady_clock::now();
    eq.run();
    const auto t1 = std::chrono::steady_clock::now();
    return double(eq.eventsProcessed()) / seconds(t0, t1);
}

/** Near traffic plus perpetually re-armed far watchdogs. */
template <typename Q, typename Wrapper>
double
farTimers(std::uint64_t targetEvents)
{
    Q eq;
    Xorshift rnd;
    static constexpr int kNear = 48;
    static constexpr int kWatchdogs = 16;
    static constexpr Tick watchdogPeriod = 500000; // past the horizon

    std::vector<std::unique_ptr<Wrapper>> near;
    std::vector<std::unique_ptr<Wrapper>> dogs;
    near.reserve(kNear);
    dogs.reserve(kWatchdogs);

    for (int i = 0; i < kWatchdogs; ++i) {
        dogs.push_back(std::make_unique<Wrapper>(
            [&eq, &dogs, i] {
                eq.schedule(dogs[std::size_t(i)].get(),
                            eq.curTick() + watchdogPeriod);
            },
            "watchdog"));
        eq.schedule(dogs.back().get(), watchdogPeriod + Tick(i));
    }
    for (int i = 0; i < kNear; ++i) {
        near.push_back(std::make_unique<Wrapper>(
            [&eq, &near, &dogs, &rnd, i] {
                eq.schedule(near[std::size_t(i)].get(),
                            eq.curTick() + rnd() % 3000 + 1);
                // Activity re-arms a watchdog: the far timer is
                // descheduled long before it fires, every time —
                // stale-entry churn in the legacy heap, an O(1)
                // unlink or an O(log n) heap removal in the ladder.
                if (rnd() % 4 == 0) {
                    Wrapper *d = dogs[rnd() % kWatchdogs].get();
                    if (d->scheduled())
                        eq.reschedule(d,
                                      eq.curTick() + watchdogPeriod);
                }
            },
            "near"));
        eq.schedule(near.back().get(), rnd() % 3000 + 1);
    }

    const auto t0 = std::chrono::steady_clock::now();
    while (eq.eventsProcessed() < targetEvents && eq.step()) {
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (auto &e : near)
        if (e->scheduled())
            eq.deschedule(e.get());
    for (auto &e : dogs)
        if (e->scheduled())
            eq.deschedule(e.get());
    return double(eq.eventsProcessed()) / seconds(t0, t1);
}

struct ScenarioResult
{
    const char *name;
    double legacy; ///< Median events/s over the pairs.
    double ladder; ///< Median events/s over the pairs.
    double ratio;  ///< Median of the per-pair ladder/legacy ratios.
};

/** Races per scenario; odd, so each median is one race's value. */
constexpr int racePairs = 5;

double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/**
 * Race the two cores racePairs times, alternating which goes first
 * so neither always runs on a cold (or warm) host.
 */
template <typename LegacyRun, typename LadderRun>
ScenarioResult
race(const char *name, LegacyRun legacy_run, LadderRun ladder_run)
{
    std::vector<double> legacy, ladder, ratio;
    for (int i = 0; i < racePairs; ++i) {
        double a, b;
        if (i % 2 == 0) {
            a = legacy_run();
            b = ladder_run();
        } else {
            b = ladder_run();
            a = legacy_run();
        }
        legacy.push_back(a);
        ladder.push_back(b);
        ratio.push_back(b / a);
    }
    return {name, median(legacy), median(ladder), median(ratio)};
}

} // namespace

static std::uint64_t
parseOps(int argc, char **argv, std::uint64_t def)
{
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--ops=", 6) == 0)
            return std::strtoull(argv[i] + 6, nullptr, 0);
    return def;
}

int
main(int argc, char **argv)
{
    bench::Telemetry telemetry(argc, argv);
    const std::uint64_t ops = parseOps(argc, argv, 2000000);

    std::vector<ScenarioResult> results;
    results.push_back(race(
        "clock-mix",
        [ops] { return clockMix<LegacyQueue, LegacyWrapper>(ops); },
        [ops] { return clockMix<EventQueue, EventFunctionWrapper>(ops); }));
    results.push_back(race(
        "oneshot-chain",
        [ops] { return oneShotChain<LegacyQueue, LegacyOneShot>(ops); },
        [ops] { return oneShotChain<EventQueue, OneShotEvent>(ops); }));
    results.push_back(race(
        "far-timers",
        [ops] { return farTimers<LegacyQueue, LegacyWrapper>(ops); },
        [ops] {
            return farTimers<EventQueue, EventFunctionWrapper>(ops);
        }));

    std::printf("event-core throughput (%llu events per run, median "
                "of %d alternating pairs)\n",
                (unsigned long long)ops, racePairs);
    std::printf("%-14s %14s %14s %8s\n", "scenario", "legacy-ev/s",
                "ladder-ev/s", "ratio");
    for (const auto &r : results)
        std::printf("%-14s %14.0f %14.0f %7.2fx\n", r.name, r.legacy,
                    r.ladder, r.ratio);

    stats::StatGroup root("eventCore");
    std::vector<std::unique_ptr<stats::Scalar>> scalars;
    for (const auto &r : results) {
        auto mk = [&](std::string n, std::string d, double v) {
            auto s = std::make_unique<stats::Scalar>(
                &root, std::move(n), std::move(d));
            *s = v;
            scalars.push_back(std::move(s));
        };
        std::string base = r.name;
        mk(base + "LegacyEventsPerSec",
           "legacy heap throughput, " + base, r.legacy);
        mk(base + "LadderEventsPerSec",
           "ladder queue throughput, " + base, r.ladder);
        mk(base + "SpeedupRatio", "ladder/legacy ratio, " + base,
           r.ratio);
    }
    telemetry.capture("event-core", root);
    return 0;
}
