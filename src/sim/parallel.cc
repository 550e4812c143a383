#include "sim/parallel.hh"

#include <algorithm>
#include <exception>

namespace contutto::sim
{

namespace
{

/** Per directed shard pair, messages per window. */
constexpr std::size_t mailboxCapacity = 4096;

/** Which shard (of which executor) this thread is running. */
thread_local const ShardedExecutor *tlsExec = nullptr;
thread_local unsigned tlsShard = ShardedExecutor::invalidShard;

struct SliceScope
{
    SliceScope(const ShardedExecutor *exec, unsigned shard)
    {
        tlsExec = exec;
        tlsShard = shard;
    }
    ~SliceScope()
    {
        tlsExec = nullptr;
        tlsShard = ShardedExecutor::invalidShard;
    }
};

} // namespace

// ---------------------------------------------------------------- //
// SpscMailbox
// ---------------------------------------------------------------- //

SpscMailbox::SpscMailbox(std::size_t capacity) : slots_(capacity)
{
    ct_assert(capacity >= 2);
}

void
SpscMailbox::push(Message &&m)
{
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t next = (tail + 1) % slots_.size();
    if (next == head_.load(std::memory_order_acquire))
        panic("cross-shard mailbox overflow (%zu messages in one "
              "window); raise mailboxCapacity in sim/parallel.cc",
              slots_.size() - 1);
    slots_[tail] = std::move(m);
    tail_.store(next, std::memory_order_release);
}

bool
SpscMailbox::pop(Message &m)
{
    std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire))
        return false;
    m = std::move(slots_[head]);
    head_.store((head + 1) % slots_.size(),
                std::memory_order_release);
    return true;
}

// ---------------------------------------------------------------- //
// ShardedExecutor
// ---------------------------------------------------------------- //

ShardedExecutor::ShardedExecutor(const Params &params)
    : params_(params)
{
    ct_assert(params.shards >= 1);
    ct_assert(params.window > 0);
    shards_.reserve(params.shards);
    for (unsigned s = 0; s < params.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->eq = std::make_unique<EventQueue>();
        shard->inbox.reserve(params.shards);
        for (unsigned src = 0; src < params.shards; ++src)
            shard->inbox.push_back(std::make_unique<SpscMailbox>(
                mailboxCapacity));
        shard->nextSeq.assign(params.shards, 0);
        shards_.push_back(std::move(shard));
    }
}

ShardedExecutor::~ShardedExecutor()
{
    stopWorkers();
}

unsigned
ShardedExecutor::currentShard() const
{
    return tlsExec == this ? tlsShard : invalidShard;
}

void
ShardedExecutor::post(unsigned to, Tick when,
                      std::function<void()> fn)
{
    ct_assert(to < shards_.size());
    ct_assert(fn != nullptr);
    unsigned from = currentShard();
    if (from == invalidShard) {
        // Setup/teardown path: single-threaded by contract, so the
        // message can take the queue directly — identically in both
        // modes, hence without breaking the differential guarantee.
        EventQueue &q = *shards_[to]->eq;
        OneShotEvent::schedule(q, std::max(when, q.curTick()),
                               std::move(fn));
        return;
    }
    Shard &src = *shards_[from];
    shards_[to]->inbox[from]->push(
        SpscMailbox::Message{when, from, src.nextSeq[to]++,
                             std::move(fn)});
}

void
ShardedExecutor::runSlice(unsigned s, Tick windowEnd)
{
    SliceScope scope(this, s);
    shards_[s]->eq->run(windowEnd - 1);
}

void
ShardedExecutor::drainMailboxes()
{
    // Runs at barriers only: every worker is parked, so walking the
    // consumer ends of all mailboxes from one thread is safe.
    const Tick barrier = windowEnd_;
    std::vector<SpscMailbox::Message> batch;
    for (auto &dest : shards_) {
        batch.clear();
        SpscMailbox::Message m;
        for (auto &box : dest->inbox)
            while (box->pop(m))
                batch.push_back(std::move(m));
        if (batch.empty())
            continue;
        // One canonical delivery order per destination. (when, from,
        // seq) is a total order: seq is unique per sender.
        std::sort(batch.begin(), batch.end(),
                  [](const SpscMailbox::Message &a,
                     const SpscMailbox::Message &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.from != b.from)
                          return a.from < b.from;
                      return a.seq < b.seq;
                  });
        ctr_.mailboxHighWater =
            std::max<std::uint64_t>(ctr_.mailboxHighWater,
                                    batch.size());
        for (auto &msg : batch) {
            // The conservative clamp: nothing lands before the
            // barrier, so the receiving window never sees state
            // younger than its own start.
            OneShotEvent::schedule(*dest->eq,
                                   std::max(msg.when, barrier),
                                   std::move(msg.fn));
            ++ctr_.messages;
        }
    }
}

Tick
ShardedExecutor::nextWorkTick() const
{
    Tick next = maxTick;
    for (const auto &shard : shards_)
        next = std::min(next, shard->eq->nextEventTick());
    return next;
}

void
ShardedExecutor::windowLoop(Tick limit,
                            const std::function<bool()> &barrierStop)
{
    ct_assert(!running_);
    running_ = true;
    if (params_.mode == Mode::parallel && shards_.size() > 1)
        startWorkers();

    Tick prevEnd = 0;
    for (;;) {
        if (cancelRequested())
            break;
        Tick next = nextWorkTick();
        if (next == maxTick || next > limit)
            break;
        if (prevEnd != 0 && next > prevEnd)
            ++ctr_.idleSkips;

        Tick end = next >= maxTick - params_.window
            ? maxTick
            : next + params_.window;
        if (limit != maxTick && end > limit + 1)
            end = limit + 1;

        if (params_.mode == Mode::parallel && shards_.size() > 1) {
            {
                std::lock_guard<std::mutex> lk(mtx_);
                windowEnd_ = end;
                workersDone_ = 0;
                ++windowGen_;
            }
            cvGo_.notify_all();
            std::unique_lock<std::mutex> lk(mtx_);
            cvDone_.wait(lk, [this] {
                return workersDone_ == shards_.size();
            });
        } else {
            windowEnd_ = end;
            // The reference schedule: shard 0 first, always.
            for (unsigned s = 0; s < shards_.size(); ++s)
                runSlice(s, end);
        }
        ++ctr_.windows;

        drainMailboxes();
        ++ctr_.barriers;
        prevEnd = end;

        if (barrierStop && barrierStop())
            break;
    }
    running_ = false;
}

Tick
ShardedExecutor::run(Tick limit)
{
    windowLoop(limit, {});
    Tick reached = 0;
    for (const auto &shard : shards_)
        reached = std::max(reached, shard->eq->curTick());
    return reached;
}

bool
ShardedExecutor::runUntilIdle(const std::function<bool()> &idle,
                              Tick timeout)
{
    ct_assert(idle != nullptr);
    Tick start = 0;
    for (const auto &shard : shards_)
        start = std::max(start, shard->eq->curTick());
    const Tick deadline =
        start >= maxTick - timeout ? maxTick : start + timeout;
    // "Idle" needs drained queues too: deferred work (a post() not
    // yet executed) is invisible to model-state predicates.
    if (idle() && nextWorkTick() == maxTick)
        return true;
    bool reached = false;
    windowLoop(deadline, [&] {
        reached = idle();
        return reached;
    });
    // The queues may have drained with the model already idle (all
    // remaining work was periodic and none was scheduled).
    return reached || idle();
}

ShardedExecutor::RunOutcome
ShardedExecutor::runUntilIdle(const std::function<bool()> &idle,
                              Tick timeout,
                              std::chrono::milliseconds wallLimit)
{
    ct_assert(idle != nullptr);
    Tick start = 0;
    for (const auto &shard : shards_)
        start = std::max(start, shard->eq->curTick());
    const Tick deadline =
        start >= maxTick - timeout ? maxTick : start + timeout;
    const bool walled = wallLimit.count() > 0;
    const auto wallDeadline =
        std::chrono::steady_clock::now() + wallLimit;

    if (cancelRequested())
        return RunOutcome::cancelled;
    if (idle() && nextWorkTick() == maxTick)
        return RunOutcome::idle;

    RunOutcome out = RunOutcome::tickTimeout;
    windowLoop(deadline, [&] {
        if (cancelRequested()) {
            out = RunOutcome::cancelled;
            return true;
        }
        if (walled
            && std::chrono::steady_clock::now() >= wallDeadline) {
            out = RunOutcome::wallTimeout;
            return true;
        }
        if (idle()) {
            out = RunOutcome::idle;
            return true;
        }
        return false;
    });
    // windowLoop also breaks on its own cancel check (before the
    // barrier callback sees it) and on drained queues.
    if (out == RunOutcome::tickTimeout) {
        if (cancelRequested())
            out = RunOutcome::cancelled;
        else if (idle())
            out = RunOutcome::idle;
    }
    return out;
}

void
ShardedExecutor::setCancelFlag(const std::atomic<bool> *flag)
{
    cancel_ = flag;
    for (auto &shard : shards_)
        shard->eq->setCancelFlag(flag);
}

void
ShardedExecutor::startWorkers()
{
    if (!workers_.empty())
        return;
    workers_.reserve(shards_.size());
    for (unsigned s = 0; s < shards_.size(); ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

void
ShardedExecutor::stopWorkers()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lk(mtx_);
        shutdown_ = true;
    }
    cvGo_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    shutdown_ = false;
}

void
ShardedExecutor::workerLoop(unsigned s)
{
    std::uint64_t seenGen = 0;
    for (;;) {
        Tick end;
        {
            std::unique_lock<std::mutex> lk(mtx_);
            cvGo_.wait(lk, [this, seenGen] {
                return shutdown_ || windowGen_ != seenGen;
            });
            if (shutdown_)
                return;
            seenGen = windowGen_;
            end = windowEnd_;
        }
        runSlice(s, end);
        {
            std::lock_guard<std::mutex> lk(mtx_);
            ++workersDone_;
        }
        cvDone_.notify_one();
    }
}

void
ShardedExecutor::runTasks(unsigned shards, Mode mode,
                          const std::vector<std::function<void()>> &tasks)
{
    ct_assert(shards >= 1);
    // A throwing task must not abort its neighbours (parallel mode)
    // or skip the remaining tasks (serial mode): run everything,
    // remember the lowest-index failure, rethrow it at the end so
    // both modes surface the identical exception for the identical
    // task set.
    std::mutex failMtx;
    std::exception_ptr firstFailure;
    std::size_t firstIdx = tasks.size();
    auto runOne = [&](std::size_t i) {
        try {
            tasks[i]();
        } catch (...) {
            std::lock_guard<std::mutex> lk(failMtx);
            if (i < firstIdx) {
                firstIdx = i;
                firstFailure = std::current_exception();
            }
        }
    };
    if (mode == Mode::serial || shards == 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            runOne(i);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(shards);
        for (unsigned s = 0; s < shards; ++s)
            threads.emplace_back([s, shards, &tasks, &runOne] {
                for (std::size_t i = s; i < tasks.size();
                     i += shards)
                    runOne(i);
            });
        for (std::thread &t : threads)
            t.join();
    }
    if (firstFailure)
        std::rethrow_exception(firstFailure);
}

} // namespace contutto::sim
