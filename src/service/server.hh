/**
 * @file
 * CampaignServer: the long-lived campaign daemon.
 *
 * Serves campaign requests over a Unix-domain socket (one JSON
 * line per request/response, see protocol.hh) and survives
 * overload by *design*:
 *
 *  - *Bounded admission.* Requests wait in a priority queue with a
 *    hard cap. When the queue is full — or the server is draining —
 *    the request is shed immediately with an explicit retryAfterMs
 *    hint, never silently dropped and never queued without bound.
 *    Backpressure is a first-class answer, not a failure mode.
 *
 *  - *Deadlines end to end.* A request's deadlineMs covers queue
 *    wait plus execution. The remaining budget at dispatch becomes
 *    the CampaignSupervisor task deadline, so the watchdog raises
 *    the same cancel token the event loops poll; a request whose
 *    budget expired while queued is answered `timeout` without
 *    wasting a worker on it.
 *
 *  - *Idempotent requests.* Request ids are client-chosen and
 *    idempotent: a duplicate of an in-flight id coalesces onto the
 *    same execution (one simulation, N answers), and a duplicate
 *    of a completed id replays the recorded response. A client
 *    that retries because a response was lost can never cause a
 *    second execution.
 *
 *  - *Memoized determinism.* Results are cached in a bounded LRU
 *    keyed by (config hash, seed). The engine is deterministic, so
 *    a memo hit IS the result — byte-identical payload to a fresh
 *    computation, including by a restarted server that warmed its
 *    cache from the drained index.
 *
 *  - *Graceful drain.* requestDrain() (SIGTERM in campaignd) stops
 *    admission, finishes in-flight work, persists the memo index
 *    through the atomic checkpoint writer, then stop() tears the
 *    socket down. A drain that overruns its budget cancels the
 *    remaining supervisors cooperatively rather than hanging.
 *
 *  - *Chaos hooks.* The fault plan injects delayed, dropped, and
 *    truncated responses and worker crashes on a deterministic
 *    cadence, so the chaos harness can attack the service layer
 *    itself and assert the exactly-once contract end to end.
 *
 *  - *Live telemetry.* Every admission decision, queue wait, memo
 *    probe, execution and response is counted once, in a lock-cheap
 *    MetricsRegistry (sim/metrics.hh), and a `health` request — the
 *    only counter plane on the wire — snapshots it at any moment,
 *    JSON or Prometheus text, without perturbing the workload. A
 *    submit carrying `stream:true` additionally receives
 *    rate-limited, seq-numbered `progress` frames on its own
 *    connection while it waits (queued and running states, work
 *    counts, supervisor heartbeats), always strictly before its
 *    terminal `result` frame. Each request
 *    carries a trace id; the server opens svc.queue / svc.exec /
 *    svc.serialize spans against it (sim/span.hh), reports the
 *    exact same microsecond attribution in the result frame, and
 *    a periodic sampler thread records queue-depth and in-flight
 *    trajectories between requests.
 */

#ifndef CONTUTTO_SERVICE_SERVER_HH
#define CONTUTTO_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/memo_cache.hh"
#include "service/protocol.hh"
#include "sim/metrics.hh"

namespace contutto::sim
{
class CampaignSupervisor;
}

namespace contutto::service
{

class CampaignServer
{
  public:
    /** Deterministic-cadence fault injection (0 = never). */
    struct FaultPlan
    {
        /** Delay every Nth result response by delayMs. */
        unsigned delayEveryN = 0;
        std::uint64_t delayMs = 50;
        /** Drop every Nth result response (close instead). */
        unsigned dropEveryN = 0;
        /** Truncate every Nth result response mid-line. */
        unsigned truncateEveryN = 0;
        /** Crash the worker on every Nth execution's first
         *  attempt (the supervisor's retry ladder absorbs it). */
        unsigned crashEveryN = 0;
    };

    struct Params
    {
        std::string socketPath;
        /** Worker threads executing campaigns. */
        unsigned workers = 2;
        /** Admission queue cap (queued, not running). */
        std::size_t queueCap = 64;
        /** Memo cache entries; 0 disables memoization. */
        std::size_t memoCapacity = 4096;
        /** Warm from / persist to this index (empty: in-memory
         *  only). Loaded at start, saved at drain. */
        std::string memoPath;
        /** Completed-request replay window (dedup LRU). */
        std::size_t completedCap = 4096;
        /** Applied when a submit carries deadlineMs == 0. */
        std::uint64_t defaultDeadlineMs = 0;
        /** Base retry hint for shed responses. */
        std::uint64_t shedRetryAfterMs = 50;
        /** Supervisor knobs for each execution. */
        unsigned attempts = 2;
        std::chrono::milliseconds watchdogInterval{5};
        std::chrono::milliseconds cancelGrace{2000};
        /** Drain budget before in-flight work is cancelled. */
        std::chrono::milliseconds drainTimeout{30000};
        /** Rate limit between progress frames per streaming
         *  request (the subscription knob is per-submit). */
        std::chrono::milliseconds progressPeriod{100};
        /** Telemetry sampler cadence (0 disables the sampler). */
        std::chrono::milliseconds samplePeriod{50};
        FaultPlan faults;
    };

    explicit CampaignServer(const Params &params);
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** Bind, listen, spawn the accept loop and the worker pool.
     *  Throws std::runtime_error when the socket cannot be set
     *  up. Loads the memo index when memoPath names one: an index
     *  of another checkpoint format version is a cold start with
     *  one warning, a corrupt one throws ckpt::Error. */
    void start();

    /** Stop admitting work; in-flight and queued jobs still run to
     *  completion and their waiters are answered. Idempotent. */
    void requestDrain();

    /** Drain, wait (up to drainTimeout) for in-flight work,
     *  persist the memo index, tear down the socket and join all
     *  threads. Returns true when the drain beat the timeout
     *  (clean), false when stragglers had to be cancelled. */
    bool stop();

    const std::string &socketPath() const
    {
        return params_.socketPath;
    }
    const MemoCache &memo() const { return memo_; }

    /** Point-in-time read of the live metrics registry: the one
     *  place every server event is counted. */
    metrics::Snapshot metricsSnapshot() const
    {
        return registry_.snapshot();
    }

    /** Prometheus text exposition of the registry. */
    std::string prometheusText() const
    {
        return registry_.prometheusText();
    }

  private:
    struct Job;

    void acceptLoop();
    void workerLoop(unsigned index);
    void samplerLoop();
    void handleConnection(int fd);
    /** One request line -> one response line (or injected fault).
     *  @return false when the connection must close. */
    bool handleLine(int fd, const std::string &line);
    bool handleSubmit(int fd, const Json &doc);
    void runJob(const std::shared_ptr<Job> &job, unsigned worker);
    bool respond(int fd, const Json &response, bool faultable);
    /** Emit one progress frame (never closes the stream on an
     *  injected fault). @return false when the peer is gone. */
    bool respondProgress(int fd, const Json &frame);
    /**
     * Wait (under @p lk) until @p watch completes or the server
     * stops; when @p streaming, emits rate-limited seq-numbered
     * progress frames for @p req to @p fd along the way.
     * @return true when the job reached done.
     */
    bool waitForJob(std::unique_lock<std::mutex> &lk, int fd,
                    const Request &req,
                    const std::shared_ptr<Job> &watch,
                    bool streaming, std::uint64_t &seq);
    Json healthJson(const Json &doc);
    Json resultFor(Job &job);
    /** The result frame of a request answered from a known payload
     *  (memo hit or single-flight twin): never queued, never run. */
    Json memoResult(const Request &req,
                    std::shared_ptr<const CampaignJob> campaign,
                    const std::string &payload);
    /** Under mtx_: mark @p job done, count its verdict and drop it
     *  from the in-flight indexes. */
    void retire(const std::shared_ptr<Job> &job);
    /** Microseconds since the server epoch (span tick domain). */
    std::uint64_t nowUs() const;
    /** Assign/confirm a request trace id (0 -> fresh). */
    std::uint64_t traceIdFor(std::uint64_t requested);
    /** One structured drain-cancellation error-log line. */
    void logDrainCancel(const Job &job, const char *state);

    Params params_;
    MemoCache memo_;

    int listenFd_ = -1;
    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    /** One per accepted connection; finished handlers are joined
     *  by the accept loop, the rest by stop() after it. Only the
     *  accept thread touches the list until stop() has joined it. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::list<Connection> connections_;

    mutable std::mutex mtx_;
    std::condition_variable workAvail_;
    std::condition_variable jobDone_;
    /** (−priority, admission seq) -> job: pop = begin(). */
    std::map<std::pair<std::int64_t, std::uint64_t>,
             std::shared_ptr<Job>>
        queue_;
    std::unordered_map<std::string, std::shared_ptr<Job>> active_;
    /** Admitted job per (config hash, seed): single-flight, so
     *  concurrent fresh-id twins never burn a second execution. */
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<Job>>
        keyActive_;
    /** Completed-job replay window, coldest first. */
    std::list<std::shared_ptr<Job>> doneLru_;
    std::unordered_map<std::string,
                       std::list<std::shared_ptr<Job>>::iterator>
        done_;
    /** Per-worker live supervisor, for drain-timeout cancel. */
    std::vector<sim::CampaignSupervisor *> liveSupervisors_;
    /** Per-worker job in execution, for drain straggler logging. */
    std::vector<std::shared_ptr<Job>> liveJobs_;
    /** Jobs in execution (shed hint and drain predicates). */
    std::size_t running_ = 0;
    std::uint64_t seq_ = 0;
    bool draining_ = false;
    /** Set only by stop(), after the queue has drained. */
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> responseTick_{0};
    std::atomic<std::uint64_t> executionTick_{0};
    std::atomic<std::uint64_t> progressTick_{0};
    std::atomic<std::uint64_t> traceSeq_{0};
    bool started_ = false;
    bool stopped_ = false;

    /** @{ Live telemetry plane. */
    metrics::MetricsRegistry registry_;
    metrics::Counter *mSubmitted_ = nullptr;
    metrics::Counter *mAccepted_ = nullptr;
    metrics::Counter *mCompleted_ = nullptr;
    metrics::Counter *mShed_ = nullptr;
    metrics::Counter *mDuplicates_ = nullptr;
    metrics::Counter *mCoalesced_ = nullptr;
    metrics::Counter *mMemoHits_ = nullptr;
    metrics::Counter *mMemoMisses_ = nullptr;
    metrics::Counter *mExecutions_ = nullptr;
    metrics::Counter *mFaults_ = nullptr;
    metrics::Counter *mProtocolErrors_ = nullptr;
    metrics::Counter *mProgressFrames_ = nullptr;
    metrics::Counter *mDrainCancelled_ = nullptr;
    metrics::Counter *mTimedOut_ = nullptr;
    metrics::Counter *mCancelled_ = nullptr;
    metrics::Counter *mFailed_ = nullptr;
    metrics::Counter *mSamplerTicks_ = nullptr;
    metrics::Counter *mSampledJobs_ = nullptr;
    metrics::Gauge *gQueueDepth_ = nullptr;
    metrics::Gauge *gQueuePeak_ = nullptr;
    metrics::Gauge *gRunning_ = nullptr;
    metrics::Gauge *gInFlight_ = nullptr;
    metrics::Gauge *gDraining_ = nullptr;
    metrics::Histogram *hQueueWaitMs_ = nullptr;
    metrics::Histogram *hExecMs_ = nullptr;
    metrics::Histogram *hSerializeUs_ = nullptr;
    metrics::Histogram *hE2eMs_ = nullptr;
    metrics::Histogram *hQueueDepthSampled_ = nullptr;
    metrics::Histogram *hRunningSampled_ = nullptr;
    std::chrono::steady_clock::time_point epoch_;
    std::thread samplerThread_;
    std::mutex samplerMtx_;
    std::condition_variable samplerCv_;
    bool samplerStop_ = false;
    /** @} */
};

} // namespace contutto::service

#endif // CONTUTTO_SERVICE_SERVER_HH
