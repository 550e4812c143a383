/**
 * @file
 * Discrete-event simulation core: events and the event queue.
 *
 * Events are scheduled at absolute ticks; ties are broken first by a
 * small integer priority and then by insertion order, so simulations
 * are fully deterministic. One documented refinement to the original
 * binary-heap contract: rescheduling an event to the tick it is
 * already scheduled at is a no-op that keeps the event's original
 * insertion-order tie-break (the heap rebuilt the entry and moved the
 * event behind later arrivals at the same tick). Every tie-break a
 * model can observe remains a pure function of the schedule calls it
 * made.
 *
 * The queue itself is a two-tier ladder:
 *
 *  - A near-future wheel of coarse buckets. Bucket `i` collects the
 *    ticks whose slot, `when >> grainBits`, is `i` modulo
 *    `numBuckets`; an event is wheel-resident when its slot is fewer
 *    than `numBuckets` slots past the slot of curTick(). Buckets
 *    are intrusive circular lists threaded through the events
 *    themselves and kept sorted by (tick, priority, insertion
 *    order). Schedule walks back from the bucket tail, which for
 *    the common case — the latest tick yet, largest order — stops
 *    at once; deschedule is a true O(1) unlink — no stale entries,
 *    no lazy deletion. A two-level occupancy bitmap finds the next
 *    non-empty bucket in a handful of word scans. The bucket heads
 *    (192 KiB, against 1.5 MiB for one bucket per tick) stay
 *    cache-resident.
 *  - A far-future overflow heap for events beyond the wheel horizon
 *    (ACK timeouts, watchdogs, scrub periods): a binary min-heap of
 *    Event pointers, each resident recording its own heap slot, so
 *    deschedule removes the entry at once. Entries are pulled into
 *    the wheel as the horizon reaches them.
 *
 * Either way a descheduled event leaves nothing behind, so its owner
 * may destroy it at once. Deferred one-off work (OneShotEvent) draws
 * from a freelist pool owned by the queue, and callbacks live in
 * fixed-capacity inplace storage, so the steady-state
 * schedule/dispatch path performs no heap allocation at all. The
 * queue owns pending one-shots: destroying it releases them unfired.
 */

#ifndef CONTUTTO_SIM_EVENT_HH
#define CONTUTTO_SIM_EVENT_HH

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/inplace_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace contutto
{

class EventQueue;

namespace detail
{

/**
 * Node of a wheel bucket's intrusive circular list. Every Event is
 * one (private base), and every bucket holds one as the sentinel, so
 * linking and unlinking never branch on an empty or end-of-list
 * neighbour.
 */
struct WheelLink
{
    WheelLink *_next = nullptr;
    WheelLink *_prev = nullptr;
};

} // namespace detail

/**
 * An occurrence scheduled to happen at a simulated instant.
 *
 * Subclasses override process(). An event object is owned by its
 * creator (typically a model holds it by value) and may be scheduled
 * at most once at a time; it can be rescheduled after it fires.
 */
class Event : private detail::WheelLink
{
  public:
    /** Scheduling priority; lower values fire first within a tick. */
    enum Priority : int
    {
        /** Clock edges that produce data for same-tick consumers. */
        clockPriority = 10,
        /** Ordinary model activity. */
        defaultPriority = 50,
        /** Statistics / bookkeeping that must observe the tick. */
        statPriority = 90,
    };

    explicit Event(int priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the event queue when simulated time reaches when(). */
    virtual void process() = 0;

    /**
     * Debug name for error paths and tracing. Deliberately a C
     * string: schedule()/deschedule() invoke it in their panic
     * branches, and a by-value std::string would put an allocation
     * (and its destructor) on every hot-path panic check's cold side.
     */
    virtual const char *name() const { return "event"; }

    /** True while the event sits in an event queue. */
    bool scheduled() const { return _scheduled; }

    /** The tick this event will fire at (valid while scheduled). */
    Tick when() const { return _when; }

    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _order = 0;
    /** Slot in the overflow heap (valid while an overflow resident). */
    std::uint32_t _heapIndex = 0;
    int _priority;
    bool _scheduled = false;
    /** True: linked in a wheel bucket; false: overflow resident. */
    bool _inWheel = false;
};

/**
 * A deterministic priority queue of events ordered by
 * (tick, priority, insertion order).
 */
class EventQueue : public ckpt::Checkpointable
{
  public:
    /** @{ Wheel geometry. A bucket covers 2^grainBits ticks (one
     *  slot) and the wheel holds 2^wheelBits buckets, so the horizon
     *  is `wheelSpan` ticks: 131 ns at the 1 ps tick, which covers
     *  every clock edge, DMI frame and DRAM access in the modelled
     *  system; link timeouts and watchdogs mostly overflow to the
     *  far-future heap. A 16-tick grain keeps a bucket to about one
     *  event even for dense clocked mixes, so the sorted insert
     *  rarely walks. The horizon is measured in slots: an event is
     *  admitted when slot(when) - slot(curTick) is below
     *  2^wheelBits, which is up to wheelSpan - 1 ticks ahead from a
     *  bucket-aligned curTick and at least wheelSpan - wheelGrain + 1
     *  from any other. */
    static constexpr unsigned grainBits = 4;
    static constexpr unsigned wheelBits = 13;
    static constexpr Tick wheelGrain = Tick(1) << grainBits;
    static constexpr Tick wheelSpan = wheelGrain << wheelBits;
    /** @} */

    /** Fixed size of a pooled one-shot slot; see OneShotEvent. */
    static constexpr std::size_t oneShotSlotBytes = 288;

    /** Hot counters, exported through EventCoreStats. */
    struct Counters
    {
        std::uint64_t processed = 0;
        std::uint64_t schedules = 0;
        std::uint64_t deschedules = 0;
        std::uint64_t reschedules = 0;
        /** reschedule() calls elided by the same-tick fast path. */
        std::uint64_t rescheduleNoops = 0;
        /** Events scheduled beyond the wheel horizon. */
        std::uint64_t overflowSpills = 0;
        /** Overflow residents migrated into the wheel. */
        std::uint64_t overflowPulls = 0;
        /** Most live events resident at once. */
        std::uint64_t liveHighWater = 0;
        /** Most events resident in a single bucket (one slot of
         *  wheelGrain ticks, possibly several distinct ticks) at
         *  once. */
        std::uint64_t bucketHighWater = 0;
        std::uint64_t oneShotPoolHits = 0;
        /** Pool refills: each one grew the pool by a chunk. */
        std::uint64_t oneShotPoolMisses = 0;
    };

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p ev to fire at absolute tick @p when.
     * @pre when >= curTick() and ev is not already scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event before it fires. */
    void deschedule(Event *ev);

    /**
     * Deschedule (if needed) and schedule again at @p when. When the
     * event is already scheduled at exactly @p when this is a no-op
     * that preserves the original insertion-order tie-break (the DMI
     * ACK-timeout rearm hits this on nearly every frame).
     */
    void reschedule(Event *ev, Tick when);

    /** True when no events remain. */
    bool empty() const { return _live == 0; }

    /** Number of scheduled (live) events. */
    std::size_t size() const { return _live; }

    /**
     * Run until the queue drains or simulated time would exceed
     * @p limit; returns the tick reached. Stopping at the limit
     * advances curTick() to it, but never moves time backwards: a
     * limit already behind curTick() leaves the clock where it is.
     */
    Tick run(Tick limit = maxTick);

    /** Fire exactly one event, if any; returns false if empty. */
    bool step();

    /**
     * Tick of the next event that would fire, or maxTick when the
     * queue is empty. May migrate overflow residents into the wheel
     * (it shares peek machinery with step()), so it is not const —
     * but it never changes what fires or in what order.
     */
    Tick nextEventTick();

    /**
     * True while an event's process() runs: the caller reacts to
     * simulated time at curTick(), and same-tick events queued
     * behind it have not fired. False between run()/step() calls.
     */
    bool dispatching() const { return _dispatching; }

    /** Total number of events processed since construction. */
    std::uint64_t eventsProcessed() const { return _ctr.processed; }

    const Counters &counters() const { return _ctr; }

    /**
     * Point run() at an externally owned cancel flag (null to
     * detach). While set, run() polls the flag every
     * `cancelPollInterval` events and returns early when it is
     * raised, leaving remaining events queued. This is the
     * cooperative-cancellation hook the campaign supervisor uses to
     * reel in a hung or over-deadline shard; polling at a fixed
     * event granularity keeps the hot dispatch loop free of an
     * atomic load per event.
     */
    void
    setCancelFlag(const std::atomic<bool> *flag)
    {
        _cancel = flag;
    }

    /** True when the attached cancel flag is raised. */
    bool
    cancelRequested() const
    {
        return _cancel != nullptr
               && _cancel->load(std::memory_order_relaxed);
    }

    /** Events dispatched between cancel-flag polls in run(). */
    static constexpr std::uint64_t cancelPollInterval = 4096;

    /**
     * @{ ckpt::Checkpointable: clock, insertion-order counter, and
     * hot counters. Restore demands a fully drained queue — every
     * event owner must have descheduled its events first (the drain
     * phase) — because live Event objects cannot be serialized; they
     * are re-armed by their owners in the refill phase.
     */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;

    /**
     * Suspends hot-counter accounting while components re-arm their
     * events in the refill phase. The re-arm schedule() calls replay
     * history the saved counters already include; counting them
     * again would make a resumed run's stats diverge from an
     * uninterrupted one. Refill happens after the clock is restored,
     * so wheel/overflow residency is decided at the checkpoint tick
     * — callers must take checkpoints only after a normalization
     * probe (nextEventTick(), which pulls every due overflow
     * resident into the wheel) so residency and the pull counter
     * agree between the saving run and an uninterrupted baseline.
     */
    class CounterFreeze
    {
      public:
        explicit CounterFreeze(EventQueue &eq) : eq_(eq)
        {
            eq_._freezeCtr = true;
        }
        ~CounterFreeze() { eq_._freezeCtr = false; }
        CounterFreeze(const CounterFreeze &) = delete;
        CounterFreeze &operator=(const CounterFreeze &) = delete;

      private:
        EventQueue &eq_;
    };
    /** @} */

    /** @{ One-shot pool access, for OneShotEvent only. */
    void *allocOneShot();
    void freeOneShot(void *p);
    /** @} */

  private:
    /** A circular list through its sentinel: empty when the
     *  sentinel links to itself; head is `list._next`. */
    struct Bucket
    {
        detail::WheelLink list;
        std::uint32_t count = 0;
    };

    static constexpr std::size_t numBuckets = std::size_t(1)
                                              << wheelBits;
    static constexpr std::size_t bucketMask = numBuckets - 1;
    static constexpr std::size_t numWheelWords = numBuckets / 64;
    static constexpr std::size_t numSummaryWords =
        (numWheelWords + 63) / 64;
    static_assert(numWheelWords >= 1
                      && std::has_single_bit(numSummaryWords),
                  "wheel needs a power-of-two count of >= 64 buckets");

    /** The wheel slot of tick @p t. */
    static Tick slotOf(Tick t) { return t >> grainBits; }

    /** The bucket holding slot(@p t). */
    static std::size_t
    bucketOf(Tick t)
    {
        return std::size_t(slotOf(t)) & bucketMask;
    }

    /** True when @p a fires after @p b: (tick, priority, order). */
    static bool firesAfter(const Event &a, const Event &b);

    /** True when @p when lies within the wheel horizon. */
    bool
    inHorizon(Tick when) const
    {
        return slotOf(when) - slotOf(_curTick) < numBuckets;
    }

    /** @{ Wheel internals. */
    void bucketInsert(Event *ev);
    void bucketUnlink(Event *ev);
    std::size_t nextOccupied(std::size_t fromBucket) const;
    void markOccupied(std::size_t idx);
    /** @} */

    /** @{ Overflow heap internals. The sift helpers settle @p ev
     *  into the hole at slot @p i, moving it up or down. */
    void heapRemove(Event *ev);
    void heapSiftUp(std::uint32_t i, Event *ev);
    void heapSiftDown(std::uint32_t i, Event *ev);
    /** @} */

    /** Migrate overflow residents now inside the horizon. */
    void pullOverflow();

    /** Next event to fire (no unlink), or null. */
    Event *peekNext();

    /** Unlink @p ev (wheel or overflow top), then fire it. */
    void fire(Event *ev);

    std::vector<Bucket> _buckets;
    std::vector<std::uint64_t> _occ;     ///< bit per bucket.
    std::vector<std::uint64_t> _summary; ///< bit per _occ word.
    std::size_t _wheelCount = 0;

    /** Overflow min-heap under firesAfter; top at index 0. */
    std::vector<Event *> _overflow;

    Tick _curTick = 0;
    std::uint64_t _nextOrder = 0;
    std::size_t _live = 0;
    Counters _ctr;
    /** Externally owned cooperative-cancellation flag; may be null. */
    const std::atomic<bool> *_cancel = nullptr;
    /** True while a CounterFreeze (checkpoint refill) is active. */
    bool _freezeCtr = false;
    /** True inside fire(); see dispatching(). */
    bool _dispatching = false;

    /** @{ One-shot freelist pool. */
    struct OneShotSlot
    {
        OneShotSlot *next;
    };
    static constexpr std::size_t oneShotChunkSlots = 64;
    std::vector<std::unique_ptr<unsigned char[]>> _poolChunks;
    OneShotSlot *_freeOneShots = nullptr;
    /** @} */
};

/**
 * Fixed-capacity callback storage for persistent model events. The
 * bound lambdas in dmi/mbs/centaur/mem capture at most `this` plus a
 * few words; anything larger is a compile error, not an allocation.
 */
constexpr std::size_t eventCallbackBytes = 48;

/** An Event that invokes a bound callable; the common case. */
class EventFunctionWrapper : public Event
{
  public:
    using Callback = InplaceFunction<void(), eventCallbackBytes>;

    template <typename F>
    EventFunctionWrapper(F &&callback, std::string name,
                         int priority = defaultPriority)
        : Event(priority), callback_(std::forward<F>(callback)),
          name_(std::move(name))
    {
        ct_assert(static_cast<bool>(callback_));
    }

    void process() override { callback_(); }
    const char *name() const override { return name_.c_str(); }

  private:
    Callback callback_;
    /** Built once at construction; only read on error paths. */
    std::string name_;
};

/**
 * A self-deleting event for one-off deferred work; created via
 * OneShotEvent::schedule and destroyed after firing, or unfired when
 * its queue is destroyed first. Cannot be descheduled by the caller
 * (it owns itself). Storage comes from the
 * queue's freelist pool, and the callback is inplace, so the
 * steady-state deferred-call path never touches the heap. The
 * capacity accommodates the largest capture in the tree (an MBS read
 * return: a cache line plus bookkeeping).
 */
class OneShotEvent : public Event
{
  public:
    using Callback = InplaceFunction<void(), 200>;

    /** Allocate (from the pool) and schedule a one-shot callback. */
    template <typename F>
    static void
    schedule(EventQueue &eq, Tick when, F &&fn,
             int priority = defaultPriority)
    {
        void *slot = eq.allocOneShot();
        Event *ev =
            ::new (slot) OneShotEvent(eq, std::forward<F>(fn),
                                      priority);
        eq.schedule(ev, when);
    }

    void process() override;
    const char *name() const override { return "oneShot"; }

  private:
    template <typename F>
    OneShotEvent(EventQueue &eq, F &&fn, int priority)
        : Event(priority), eq_(&eq), fn_(std::forward<F>(fn))
    {}

    EventQueue *eq_;
    Callback fn_;
};

static_assert(sizeof(OneShotEvent) <= EventQueue::oneShotSlotBytes,
              "one-shot pool slots too small");

} // namespace contutto

#endif // CONTUTTO_SIM_EVENT_HH
