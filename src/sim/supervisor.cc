#include "sim/supervisor.hh"

#include <algorithm>
#include <exception>
#include <thread>

namespace contutto::sim
{

/**
 * Per-task shared state between the owning worker and the watchdog.
 * `cancel` is the token the task polls (atomic, lock-free); all
 * other fields are guarded by the supervisor mutex.
 */
struct CampaignSupervisor::Slot
{
    std::atomic<bool> cancel{false};
    bool running = false;
    /** Effective wall budget for this task (0: unlimited). */
    std::chrono::milliseconds deadline{0};
    /** The watchdog cancelled this attempt for overrunning. */
    bool deadlineCancelled = false;
    /** Ignored its cancel past the grace period (hung shard). */
    bool unresponsive = false;
    std::chrono::steady_clock::time_point startedAt{};
    std::chrono::steady_clock::time_point cancelledAt{};
    TaskReport report;
};

const char *
CampaignSupervisor::outcomeName(TaskOutcome o)
{
    switch (o) {
      case TaskOutcome::ok: return "ok";
      case TaskOutcome::okRetried: return "okRetried";
      case TaskOutcome::okDegraded: return "okDegraded";
      case TaskOutcome::quarantined: return "quarantined";
      case TaskOutcome::timedOut: return "timedOut";
      case TaskOutcome::cancelled: return "cancelled";
    }
    return "?";
}

CampaignSupervisor::CampaignSupervisor(const Params &params)
    : params_(params)
{
    ct_assert(params.shards >= 1);
    ct_assert(params.parallelAttempts >= 1);
    ct_assert(params.watchdogInterval.count() > 0);
}

std::chrono::milliseconds
CampaignSupervisor::backoffFor(std::size_t task, unsigned attempt)
{
    // Deterministic (seed, task, attempt) -> sleep: uniform in
    // [0, base * 2^attempt], capped. Two supervisors with the same
    // seed retry on the same schedule.
    std::uint64_t span = std::uint64_t(params_.backoffBase.count())
                         << std::min(attempt, 20u);
    span = std::min<std::uint64_t>(
        span, std::uint64_t(params_.backoffCap.count()));
    if (span == 0)
        return std::chrono::milliseconds(0);
    Rng rng(params_.backoffSeed
            ^ (std::uint64_t(task) * 0x9e3779b97f4a7c15ull)
            ^ (std::uint64_t(attempt) << 32));
    return std::chrono::milliseconds(rng.below(span + 1));
}

void
CampaignSupervisor::watchdogLoop()
{
    std::unique_lock<std::mutex> lk(mtx_);
    while (!watchdogStop_) {
        cv_.wait_for(lk, params_.watchdogInterval);
        if (watchdogStop_)
            return;
        if (params_.onTick) {
            // Outside the lock: the tick callback may read slot-
            // external state (progress boards, metric gauges) that
            // its owner also touches while holding other locks.
            lk.unlock();
            params_.onTick();
            lk.lock();
            if (watchdogStop_)
                return;
        }
        const auto now = std::chrono::steady_clock::now();
        const bool global =
            globalCancel_.load(std::memory_order_relaxed);
        for (Slot &s : *slots_) {
            if (!s.running)
                continue;
            if (global)
                s.cancel.store(true, std::memory_order_relaxed);
            if (!s.deadlineCancelled) {
                if (s.deadline.count() > 0
                    && now - s.startedAt >= s.deadline) {
                    s.deadlineCancelled = true;
                    s.cancelledAt = now;
                    s.cancel.store(true,
                                   std::memory_order_relaxed);
                }
            } else if (!s.unresponsive
                       && now - s.cancelledAt
                              >= params_.cancelGrace) {
                // Cancelled long ago and still running: the one
                // failure cooperative cancellation cannot recover.
                s.unresponsive = true;
            }
        }
    }
}

bool
CampaignSupervisor::runAttempts(Slot &slot, const TaskSpec &task,
                                bool serialPhase)
{
    TaskReport &rep = slot.report;
    const unsigned maxAttempts = serialPhase
                                     ? params_.serialAttempts
                                     : params_.parallelAttempts;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        if (globalCancel_.load(std::memory_order_relaxed)) {
            rep.outcome = TaskOutcome::cancelled;
            return true;
        }
        {
            std::lock_guard<std::mutex> lk(mtx_);
            slot.cancel.store(false, std::memory_order_relaxed);
            slot.deadlineCancelled = false;
            slot.startedAt = std::chrono::steady_clock::now();
            slot.running = true;
        }
        ++rep.attempts;
        bool threw = false;
        try {
            task.fn(slot.cancel);
        } catch (const std::exception &e) {
            threw = true;
            rep.error = e.what();
        } catch (...) {
            threw = true;
            rep.error = "non-std exception";
        }
        bool timedOut, hung;
        {
            std::lock_guard<std::mutex> lk(mtx_);
            slot.running = false;
            timedOut = slot.deadlineCancelled;
            hung = slot.unresponsive;
        }
        if (globalCancel_.load(std::memory_order_relaxed)) {
            rep.outcome = TaskOutcome::cancelled;
            rep.unresponsive = hung;
            return true;
        }
        if (timedOut) {
            // An over-deadline task is terminal, not retried: a
            // live-locked simulation would only hang again and eat
            // another deadline's worth of wall clock.
            rep.outcome = TaskOutcome::timedOut;
            rep.unresponsive = hung;
            if (rep.error.empty())
                rep.error = "deadline exceeded";
            return true;
        }
        if (!threw) {
            rep.outcome = serialPhase ? TaskOutcome::okDegraded
                          : attempt == 1 ? TaskOutcome::ok
                                         : TaskOutcome::okRetried;
            return true;
        }
        if (attempt < maxAttempts)
            std::this_thread::sleep_for(
                backoffFor(rep.index, attempt));
    }
    // Every attempt of this phase threw. The farm phase hands the
    // task to the serial pass; the serial pass is the end of the
    // ladder.
    if (serialPhase) {
        rep.outcome = TaskOutcome::quarantined;
        return true;
    }
    return false;
}

CampaignSupervisor::CampaignResult
CampaignSupervisor::run(const std::vector<Task> &tasks)
{
    std::vector<TaskSpec> specs;
    specs.reserve(tasks.size());
    for (const Task &t : tasks)
        specs.push_back({t, std::chrono::milliseconds(0)});
    return run(specs);
}

CampaignSupervisor::CampaignResult
CampaignSupervisor::run(const std::vector<TaskSpec> &tasks)
{
    const std::size_t n = tasks.size();
    std::vector<Slot> slots(n);
    for (std::size_t i = 0; i < n; ++i) {
        slots[i].report.index = i;
        slots[i].deadline = tasks[i].deadline.count() > 0
                                ? tasks[i].deadline
                                : params_.taskDeadline;
    }
    // needSerial[i]: failed every farm attempt, awaiting the
    // degradation pass (no verdict yet).
    std::vector<char> needSerial(n, 0);

    {
        std::lock_guard<std::mutex> lk(mtx_);
        slots_ = &slots;
        watchdogStop_ = false;
    }
    std::thread watchdog([this] { watchdogLoop(); });

    // Phase 1: the farm is runTasks itself (task i on shard
    // i mod shards, each shard in increasing i). runAttempts catches
    // everything, so runTasks never has a failure to rethrow.
    std::vector<std::function<void()>> farm;
    farm.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        farm.push_back([&, i] {
            if (!runAttempts(slots[i], tasks[i], false))
                needSerial[i] = 1;
        });
    ShardedExecutor::runTasks(params_.shards, params_.mode, farm);

    // Phase 2: degradation — survivors re-run alone, in index
    // order, on this thread.
    for (std::size_t i = 0; i < n; ++i) {
        if (!needSerial[i])
            continue;
        if (globalCancel_.load(std::memory_order_relaxed)) {
            slots[i].report.outcome = TaskOutcome::cancelled;
            continue;
        }
        if (params_.serialAttempts == 0) {
            slots[i].report.outcome = TaskOutcome::quarantined;
            continue;
        }
        runAttempts(slots[i], tasks[i], true);
    }

    {
        std::lock_guard<std::mutex> lk(mtx_);
        watchdogStop_ = true;
    }
    cv_.notify_all();
    watchdog.join();
    {
        std::lock_guard<std::mutex> lk(mtx_);
        slots_ = nullptr;
    }

    CampaignResult result;
    result.tasks.reserve(n);
    for (Slot &s : slots) {
        switch (s.report.outcome) {
          case TaskOutcome::ok:
          case TaskOutcome::okRetried:
            ++result.succeeded;
            if (s.report.outcome == TaskOutcome::okRetried)
                ++result.retried;
            break;
          case TaskOutcome::okDegraded:
            ++result.succeeded;
            ++result.retried;
            ++result.degraded;
            break;
          case TaskOutcome::quarantined:
            ++result.quarantined;
            break;
          case TaskOutcome::timedOut:
            ++result.timedOut;
            break;
          case TaskOutcome::cancelled:
            ++result.cancelled;
            break;
        }
        if (s.report.unresponsive)
            ++result.unresponsive;
        result.tasks.push_back(std::move(s.report));
    }
    return result;
}

} // namespace contutto::sim
