/**
 * @file
 * Supervised campaign execution: deadlines, watchdog, retry ladder.
 *
 * ShardedExecutor::runTasks is the right engine for a healthy
 * campaign — but a soak campaign that runs for hours meets unhealthy
 * tasks: a seed that trips a model bug and throws, a configuration
 * that live-locks and never returns, a host that stalls a worker.
 * CampaignSupervisor runs its tasks on runTasks itself and wraps
 * each one in the machinery long-running campaigns need:
 *
 *  - *Per-task wall-clock deadlines.* Every task receives a cancel
 *    token (an atomic flag, the same one EventQueue::setCancelFlag /
 *    ShardedExecutor::setCancelFlag poll). A watchdog thread raises
 *    the token when the task overruns its deadline; a cooperative
 *    task unwinds within one poll interval and is reported as
 *    timedOut instead of blocking the campaign forever.
 *
 *  - *Hung-shard detection.* The watchdog keeps watching after it
 *    cancels: a task that ignores its token past a grace period is
 *    flagged unresponsive (CampaignResult::unresponsive) so the
 *    operator learns which shard wedged — the one situation a
 *    cooperative scheme cannot recover by itself.
 *
 *  - *Retry with seeded exponential backoff.* A throwing task is
 *    retried on its own shard up to Params::parallelAttempts times,
 *    with a deterministic (seed, task, attempt)-derived backoff so
 *    two supervisors with the same seed sleep the same schedule.
 *
 *  - *Graceful degradation.* A task that exhausts its parallel
 *    attempts is not abandoned: after the farm finishes, survivors
 *    are re-run one at a time on the caller's thread (no concurrent
 *    neighbours — the serial attempts), and only tasks that still
 *    fail are quarantined. Every task ends in exactly one outcome
 *    of the taxonomy {ok, okRetried, okDegraded, quarantined,
 *    timedOut, cancelled}, with the final error preserved.
 *
 * Determinism contract: task bodies follow the runTasks rules (no
 * shared mutable state), so a task's *simulation* is bit-identical
 * whether it runs on a farm shard or the degradation pass. The
 * supervisor adds no nondeterminism to healthy tasks; outcomes of
 * unhealthy ones depend on wall-clock behaviour by nature.
 */

#ifndef CONTUTTO_SIM_SUPERVISOR_HH
#define CONTUTTO_SIM_SUPERVISOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/parallel.hh"
#include "sim/random.hh"

namespace contutto::sim
{

/** Runs a task list to a structured verdict, never hanging. */
class CampaignSupervisor
{
  public:
    /**
     * A supervised task. The task must poll @p cancel — directly,
     * or by handing it to EventQueue::setCancelFlag /
     * ShardedExecutor::setCancelFlag — and return promptly once it
     * is raised. Throwing reports a failure (and is retried);
     * returning after cancellation reports timedOut/cancelled.
     */
    using Task = std::function<void(const std::atomic<bool> &cancel)>;

    /**
     * A task with its own wall-clock budget. The campaign service
     * front-end maps one client request onto one TaskSpec, so the
     * request's deadline rides straight into the watchdog and the
     * cancel token the simulation polls. A zero deadline inherits
     * Params::taskDeadline (whose own zero means unlimited).
     */
    struct TaskSpec
    {
        Task fn;
        std::chrono::milliseconds deadline{0};
    };

    struct Params
    {
        /** Farm width and mode, as for runTasks. */
        unsigned shards = 4;
        ShardedExecutor::Mode mode = ShardedExecutor::Mode::parallel;
        /** Wall-clock budget per task attempt (0: unlimited). */
        std::chrono::milliseconds taskDeadline{0};
        /** How often the watchdog scans in-flight tasks. */
        std::chrono::milliseconds watchdogInterval{10};
        /** Cancelled tasks get this long to unwind before they are
         *  declared unresponsive (hung shard). */
        std::chrono::milliseconds cancelGrace{1000};
        /** Attempts on the farm before degrading (>= 1). */
        unsigned parallelAttempts = 2;
        /** Attempts in the serial degradation pass (0: none). */
        unsigned serialAttempts = 1;
        /** @{ Deterministic exponential backoff between retries:
         *  uniform in [0, base * 2^attempt), seeded per task. */
        std::uint64_t backoffSeed = 1;
        std::chrono::milliseconds backoffBase{1};
        std::chrono::milliseconds backoffCap{250};
        /** @} */
        /**
         * Called once per watchdog scan (so roughly every
         * watchdogInterval while run() is live), outside the
         * supervisor lock. The campaign service hangs its periodic
         * telemetry sampler here: progress heartbeats and live
         * execution gauges tick at the same cadence that guards
         * the deadlines, with no extra thread. Must not block.
         */
        std::function<void()> onTick;
    };

    /** Exactly one per task; the error taxonomy of the campaign. */
    enum class TaskOutcome
    {
        /** Succeeded on the first attempt. */
        ok,
        /** Succeeded on a farm retry. */
        okRetried,
        /** Failed every farm attempt, succeeded serially. */
        okDegraded,
        /** Failed every attempt everywhere; error preserved. */
        quarantined,
        /** Overran its deadline and honoured the cancel token. */
        timedOut,
        /** The campaign-wide cancel was raised before/while it ran. */
        cancelled,
    };

    static const char *outcomeName(TaskOutcome o);

    struct TaskReport
    {
        std::size_t index = 0;
        TaskOutcome outcome = TaskOutcome::ok;
        /** Attempts actually started (all phases). */
        unsigned attempts = 0;
        /** what() of the last failure, empty when none. */
        std::string error;
        /** Never acknowledged its cancel within the grace period. */
        bool unresponsive = false;
    };

    struct CampaignResult
    {
        std::vector<TaskReport> tasks;
        /** @{ Aggregates over tasks (each task counts once). */
        unsigned succeeded = 0;   ///< ok + okRetried + okDegraded.
        unsigned retried = 0;     ///< okRetried + okDegraded.
        unsigned degraded = 0;    ///< okDegraded.
        unsigned quarantined = 0;
        unsigned timedOut = 0;
        unsigned cancelled = 0;
        unsigned unresponsive = 0;
        /** @} */

        /** Zero lost tasks: every task has exactly one verdict. */
        bool
        allAccounted(std::size_t n) const
        {
            return tasks.size() == n
                   && succeeded + quarantined + timedOut + cancelled
                          == n;
        }

        bool allOk() const
        {
            return quarantined == 0 && timedOut == 0
                   && cancelled == 0 && unresponsive == 0;
        }
    };

    explicit CampaignSupervisor(const Params &params);

    /**
     * Run @p tasks under supervision; blocks until every task has a
     * verdict (unresponsive tasks excepted: their threads are
     * joined only after they finally return, so a truly wedged
     * task body does block — but is reported first via the
     * watchdog's grace scan before the join).
     */
    CampaignResult run(const std::vector<Task> &tasks);

    /** As above, with per-task deadlines. */
    CampaignResult run(const std::vector<TaskSpec> &tasks);

    /** Raise the campaign-wide cancel: in-flight tasks unwind as
     *  cancelled, queued ones never start. Idempotent. */
    void cancelAll() { globalCancel_.store(true); }

  private:
    struct Slot;

    /** @return true when the task has a terminal verdict; false
     *  when the phase was exhausted by failures (the farm's signal
     *  to queue the task for the serial degradation pass). */
    bool runAttempts(Slot &slot, const TaskSpec &task,
                     bool serialPhase);
    void watchdogLoop();
    std::chrono::milliseconds backoffFor(std::size_t task,
                                         unsigned attempt);

    Params params_;
    std::atomic<bool> globalCancel_{false};

    /** @{ Watchdog <-> worker shared state. */
    std::mutex mtx_;
    std::condition_variable cv_;
    std::vector<Slot> *slots_ = nullptr;
    bool watchdogStop_ = false;
    /** @} */
};

} // namespace contutto::sim

#endif // CONTUTTO_SIM_SUPERVISOR_HH
