/**
 * @file
 * Conservative sharded parallel discrete-event execution.
 *
 * The single-threaded EventQueue is deterministic by construction:
 * (tick, priority, insertion order) totally orders every firing. This
 * file extends that guarantee across threads. A ShardedExecutor owns
 * N shards, each with its own EventQueue, and runs them under a
 * classic conservative ("null-message-free barrier") protocol:
 *
 *   1. All shards agree on a window [W0, W1). W1 - W0 is the
 *      *lookahead*: the minimum latency any cross-shard interaction
 *      can have (for the modelled socket, the DMI link's minimum
 *      frame flight time — no frame can leave one slot and be
 *      observed by another component in less).
 *   2. Each shard runs its own queue up to (but not past) W1,
 *      single-threaded, touching only shard-local model state.
 *      Cross-shard effects are not applied directly; they are pushed
 *      into bounded SPSC mailboxes (one per directed shard pair) as
 *      (when, fromShard, seq, fn) messages.
 *   3. At the barrier every mailbox is drained, messages are merged
 *      per destination in (when, fromShard, seq) order — a total
 *      order, since seq is a per-sender monotone counter — and
 *      scheduled as ordinary events at max(when, W1). Then the next
 *      window begins at the earliest pending work.
 *
 * Determinism argument (DESIGN.md §8 has the long form): within a
 * window each shard's trajectory is a pure function of its queue
 * state, because shards share no mutable model state. The messages a
 * shard emits — payloads, ticks and order — are therefore identical
 * no matter how the OS schedules the worker threads, and the barrier
 * merge imposes one canonical delivery order. By induction over
 * windows, an N-thread run is *bit-identical* to the serial fallback
 * (mode == serial), which executes the very same window/barrier
 * protocol on one thread, shard 0 first. The differential harness in
 * tests/integration/test_parallel_differential.cc enforces this on
 * the full model stack, stats-JSON byte for byte.
 *
 * Two idioms are supported:
 *  - *Partitioned systems*: one model spread over shards (the
 *    multi-slot socket, one memory channel per shard), talking
 *    through post(). See cpu::MultiSlotSystem.
 *  - *Task farms*: many self-contained simulations (seeded campaign
 *    instances) distributed round-robin over shards via runTasks();
 *    each task owns a whole private queue, so the only requirement
 *    is that tasks share no mutable globals.
 */

#ifndef CONTUTTO_SIM_PARALLEL_HH
#define CONTUTTO_SIM_PARALLEL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace contutto::sim
{

/**
 * A bounded single-producer single-consumer mailbox of cross-shard
 * messages. The producer is the source shard's worker inside a
 * window; the consumer is the barrier drain, which runs while every
 * worker is parked — so the ring needs only acquire/release on its
 * indices, no locks. Capacity bounds the cross-shard traffic one
 * window may generate; overflow is a hard error (panic), not silent
 * loss, because a dropped message would desynchronise the shards.
 */
class SpscMailbox
{
  public:
    struct Message
    {
        Tick when = 0;
        std::uint32_t from = 0;
        std::uint64_t seq = 0;
        std::function<void()> fn;
    };

    explicit SpscMailbox(std::size_t capacity);

    /** Producer side; panics when the ring is full. */
    void push(Message &&m);

    /** Consumer side; false when empty. */
    bool pop(Message &m);

    bool empty() const
    {
        return head_.load(std::memory_order_acquire)
            == tail_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return slots_.size(); }

  private:
    std::vector<Message> slots_;
    /** Next slot to pop; owned by the consumer, read by producer. */
    std::atomic<std::size_t> head_{0};
    /** Next slot to fill; owned by the producer, read by consumer. */
    std::atomic<std::size_t> tail_{0};
};

/** Executes N per-shard event queues under windowed barriers. */
class ShardedExecutor
{
  public:
    /** How windows are executed. */
    enum class Mode
    {
        /** One thread walks shards 0..N-1 per window: the reference
         *  schedule every parallel run must reproduce exactly. */
        serial,
        /** One worker thread per shard. */
        parallel,
    };

    struct Params
    {
        unsigned shards = 1;
        /** Window width = conservative lookahead, in ticks. */
        Tick window = defaultWindow();
        Mode mode = Mode::parallel;
    };

    /**
     * The default window: 4 us, so a barrier amortises over
     * thousands of shard-local events. It is a batching choice, not
     * a latency bound — it exceeds the DMI frame latency (tens of
     * ns) and the PCIe peer link's 250 ns per line. Messages land at
     * window edges (see post()), so a model whose cross-shard
     * latency is shorter than the window must be run with a window
     * no wider than that latency: accel::PciePeerLink refuses to
     * span shards otherwise. cpu::MultiSlotSystem derives its own
     * window (deriveWindow()).
     */
    static constexpr Tick defaultWindow() { return Tick(4000000); }

    /** Aggregate counters, exported via ParallelStats. */
    struct Counters
    {
        std::uint64_t windows = 0;
        std::uint64_t barriers = 0;
        std::uint64_t messages = 0;
        /** Windows skipped forward over idle gaps. */
        std::uint64_t idleSkips = 0;
        std::uint64_t mailboxHighWater = 0;
    };

    explicit ShardedExecutor(const Params &params);
    ~ShardedExecutor();

    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;

    unsigned numShards() const { return unsigned(shards_.size()); }
    Mode mode() const { return params_.mode; }
    Tick window() const { return params_.window; }

    /** Shard @p s's private event queue. */
    EventQueue &queue(unsigned s) { return *shards_[s]->eq; }
    const EventQueue &queue(unsigned s) const { return *shards_[s]->eq; }

    /**
     * The shard whose window the calling thread is currently
     * executing, or invalidShard outside run(). Serial mode sets it
     * around each shard's slice, so model code cannot tell the modes
     * apart.
     */
    static constexpr unsigned invalidShard = ~0u;
    unsigned currentShard() const;

    /**
     * Send @p fn to run on shard @p to at tick @p when.
     *
     * From inside run() (a shard's window), the message crosses via
     * the sender's mailbox and is delivered at the next barrier, at
     * max(when, barrier tick) — so the earliest effective delivery
     * is the next window boundary, which is what makes the protocol
     * conservative. Sending to the *current* shard is allowed and
     * takes the same deferred path, so a component that is sometimes
     * co-sharded with its peer behaves identically either way.
     *
     * Outside run() (setup/teardown, single-threaded by contract)
     * the message is scheduled directly at max(when, queue tick).
     */
    void post(unsigned to, Tick when, std::function<void()> fn);

    /**
     * Run @p fn on shard @p to: inline when the caller is already on
     * it, else post()ed at the caller's current tick (the target's,
     * from outside run()). The inline path invokes @p fn as is, with
     * no std::function wrap.
     */
    template <typename Fn>
    void
    runOn(unsigned to, Fn &&fn)
    {
        const unsigned here = currentShard();
        if (here == to) {
            fn();
            return;
        }
        const Tick now = queue(here == invalidShard ? to : here).curTick();
        post(to, now, std::forward<Fn>(fn));
    }

    /**
     * Run every shard until all queues drain and no message is in
     * flight, or until simulated time would pass @p limit; returns
     * the maximum shard tick reached.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Windowed run until @p idle returns true at a barrier (checked
     * only when no message is pending, so the predicate sees a
     * consistent global state), or @p timeout simulated ticks pass.
     * @return true when idle was reached.
     */
    bool runUntilIdle(const std::function<bool()> &idle,
                      Tick timeout);

    /** Why a bounded run returned. */
    enum class RunOutcome
    {
        /** The idle predicate held at a barrier. */
        idle,
        /** Simulated time passed the tick budget first. */
        tickTimeout,
        /** Wall-clock time passed the budget first: the simulation
         *  is live-locked or grinding, not merely slow to settle. */
        wallTimeout,
        /** The attached cancel flag was raised. */
        cancelled,
    };

    /**
     * As above, but also bounded by @p wallLimit of real time
     * (zero: unbounded) and by the attached cancel flag; both are
     * checked at every barrier, and the cancel flag additionally
     * interrupts a shard mid-window (the per-queue poll in
     * EventQueue::run). The supervisor's watchdog path: a hung or
     * runaway campaign comes back as wallTimeout / cancelled
     * instead of blocking the caller forever.
     */
    RunOutcome runUntilIdle(const std::function<bool()> &idle,
                            Tick timeout,
                            std::chrono::milliseconds wallLimit);

    /**
     * Point every shard queue and the window loop at an externally
     * owned cancel flag (null to detach). Raising it stops the
     * executor at the next per-queue poll / barrier; remaining
     * events stay queued.
     */
    void setCancelFlag(const std::atomic<bool> *flag);

    /** True when the attached cancel flag is raised. */
    bool
    cancelRequested() const
    {
        return cancel_ != nullptr
               && cancel_->load(std::memory_order_relaxed);
    }

    const Counters &counters() const { return ctr_; }

    /**
     * Deterministic task farm: task i runs on shard i mod @p shards,
     * each shard walking its tasks in increasing i. With parallel
     * mode the shards proceed concurrently. Tasks must not share
     * mutable state; under that contract every task's result is
     * bit-identical regardless of shards or mode.
     *
     * A throwing task never takes its neighbours down: every task
     * runs to completion (or to its own throw) in both modes, and
     * the exception of the lowest-index throwing task is rethrown
     * on the caller's thread after all tasks finish — so serial and
     * parallel report the same failure for the same task set.
     */
    static void runTasks(unsigned shards, Mode mode,
                         const std::vector<std::function<void()>> &tasks);

  private:
    struct Shard
    {
        std::unique_ptr<EventQueue> eq;
        /** Inbound mailboxes, one per source shard. */
        std::vector<std::unique_ptr<SpscMailbox>> inbox;
        /** Next message sequence number, per destination. */
        std::vector<std::uint64_t> nextSeq;
        /** Earliest not-yet-delivered inbound message tick. */
        Tick pendingFloor = maxTick;
        std::uint64_t pendingCount = 0;
    };

    /** Run one shard's slice of the window ending at @p windowEnd. */
    void runSlice(unsigned s, Tick windowEnd);

    /** Drain every mailbox into its destination queue (barrier). */
    void drainMailboxes();

    /** Earliest tick any shard still has work at. */
    Tick nextWorkTick() const;

    /** Execute windows until @p stop says done. Both modes. */
    void windowLoop(Tick limit,
                    const std::function<bool()> &barrierStop);

    /** @{ Parallel-mode worker machinery. */
    void workerLoop(unsigned s);
    void startWorkers();
    void stopWorkers();
    /** @} */

    Params params_;
    std::vector<std::unique_ptr<Shard>> shards_;
    Counters ctr_;
    /** Externally owned cooperative-cancellation flag; may be null. */
    const std::atomic<bool> *cancel_ = nullptr;

    bool running_ = false;

    /** @{ Window hand-off: coordinator publishes a window end and a
     *  generation; workers run their slice and count themselves
     *  done. Guarded by mtx_ / signalled by cv_. */
    std::vector<std::thread> workers_;
    std::mutex mtx_;
    std::condition_variable cvGo_;
    std::condition_variable cvDone_;
    std::uint64_t windowGen_ = 0;
    Tick windowEnd_ = 0;
    unsigned workersDone_ = 0;
    bool shutdown_ = false;
    /** @} */
};

/**
 * Read-on-demand stats for one executor, in the EventCoreStats
 * idiom: a "sharded" group under @p parent.
 */
class ParallelStats : public stats::StatGroup
{
  public:
    ParallelStats(stats::StatGroup *parent,
                  const ShardedExecutor &exec)
        : stats::StatGroup("sharded", parent),
          shards_(this, "shards", "worker shards",
                  [&exec] { return double(exec.numShards()); }),
          windows_(this, "windows", "execution windows run",
                   [&exec] { return double(exec.counters().windows); }),
          barriers_(this, "barriers", "barrier synchronisations",
                    [&exec] { return double(exec.counters().barriers); }),
          messages_(this, "messages", "cross-shard messages delivered",
                    [&exec] { return double(exec.counters().messages); }),
          idleSkips_(this, "idleSkips", "idle gaps skipped",
                     [&exec] { return double(exec.counters().idleSkips); }),
          mailboxHighWater_(this, "mailboxHighWater",
                            "most messages drained at one barrier",
                            [&exec] {
                                return double(
                                    exec.counters().mailboxHighWater);
                            })
    {}

  private:
    stats::Value shards_;
    stats::Value windows_;
    stats::Value barriers_;
    stats::Value messages_;
    stats::Value idleSkips_;
    stats::Value mailboxHighWater_;
};

} // namespace contutto::sim

#endif // CONTUTTO_SIM_PARALLEL_HH
