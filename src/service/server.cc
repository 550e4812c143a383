#include "service/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/supervisor.hh"

namespace contutto::service
{

/**
 * One admitted request. Guarded by the server mutex except where
 * noted; waiters (connection threads holding a duplicate of the
 * id) sleep on jobDone_ until state == done.
 */
struct CampaignServer::Job
{
    Request req;
    /** Parsed+validated at admission; immutable afterwards. */
    std::shared_ptr<const CampaignJob> campaign;
    enum class State
    {
        queued,
        running,
        done,
    } state = State::queued;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point admitted;
    /** @{ Verdict (valid once state == done). */
    std::string status;  ///< ok | error | timeout | cancelled
    std::string outcome; ///< supervisor taxonomy, or "memo"
    std::string payload; ///< deterministic result text (ok only)
    std::string error;
    /** @} */
    /** @{ Telemetry plane. The progress board is written by the
     *  worker and the supervisor watchdog and read by streaming
     *  waiters without the server lock; everything else follows
     *  the state field's locking. */
    CampaignJob::Progress progress;
    std::uint64_t traceId = 0;
    std::uint64_t queueUs = 0;     ///< admission -> dispatch
    std::uint64_t execUs = 0;      ///< dispatch -> verdict
    std::uint64_t serializeUs = 0; ///< last response rendering
    /** @} */
};

namespace
{

/** Write all of @p data; false on any error (peer gone). */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        ssize_t n =
            ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            return false;
        }
        off += std::size_t(n);
    }
    return true;
}

constexpr std::size_t kMaxLine = 1 << 20;

} // namespace

CampaignServer::CampaignServer(const Params &params)
    : params_(params), memo_(params.memoCapacity)
{
    if (params_.socketPath.empty())
        throw std::runtime_error("campaign server: empty socket "
                                 "path");
    if (params_.workers == 0)
        throw std::runtime_error("campaign server: need >= 1 "
                                 "worker");
    liveSupervisors_.assign(params_.workers, nullptr);
    liveJobs_.assign(params_.workers, nullptr);
    epoch_ = std::chrono::steady_clock::now();

    // Metric naming convention: campaignd_<noun>[_total|_ms|_us],
    // counters carrying the Prometheus _total suffix in-name so
    // the JSON snapshot and the exposition agree on spelling.
    auto C = [this](const char *n, const char *h) {
        return &registry_.counter(n, h);
    };
    mSubmitted_ = C("campaignd_submitted_total",
                    "Submit requests received");
    mAccepted_ = C("campaignd_accepted_total",
                   "Requests admitted to the queue");
    mCompleted_ = C("campaignd_completed_total",
                    "Requests answered with a verdict");
    mShed_ = C("campaignd_shed_total",
               "Requests refused with a retry-after hint");
    mDuplicates_ = C("campaignd_duplicates_total",
                     "Duplicate ids coalesced or replayed");
    mCoalesced_ = C("campaignd_coalesced_total",
                    "Fresh ids served by a single-flight twin");
    mMemoHits_ = C("campaignd_memo_hits_total",
                   "Answers served from the memo cache");
    mMemoMisses_ = C("campaignd_memo_misses_total",
                     "Submits that missed the memo cache");
    mExecutions_ = C("campaignd_executions_total",
                     "Campaign executions started");
    mFaults_ = C("campaignd_faults_injected_total",
                 "Chaos-plan faults fired");
    mProtocolErrors_ = C("campaignd_protocol_errors_total",
                         "Malformed request lines");
    mProgressFrames_ = C("campaignd_progress_frames_total",
                         "Progress frames emitted (incl. dropped)");
    mDrainCancelled_ = C("campaignd_drain_cancelled_total",
                         "Stragglers cancelled by a blown drain");
    mTimedOut_ = C("campaignd_timeouts_total",
                   "Requests answered timeout");
    mCancelled_ = C("campaignd_cancelled_total",
                    "Requests answered cancelled");
    mFailed_ = C("campaignd_failed_total",
                 "Requests answered error");
    mSamplerTicks_ = C("campaignd_sampler_ticks_total",
                       "Telemetry sampler iterations");
    mSampledJobs_ = C("campaignd_sampled_jobs_total",
                      "Executions run in SMARTS-sampled mode");

    gQueueDepth_ = &registry_.gauge("campaignd_queue_depth",
                                    "Requests waiting in the "
                                    "admission queue");
    gQueuePeak_ = &registry_.gauge("campaignd_queue_peak",
                                   "Deepest the admission queue "
                                   "has been");
    gRunning_ = &registry_.gauge("campaignd_running",
                                 "Campaigns executing right now");
    gInFlight_ = &registry_.gauge("campaignd_inflight",
                                  "Admitted, not yet answered");
    gDraining_ = &registry_.gauge("campaignd_draining",
                                  "1 while admission is closed");

    const std::vector<std::uint64_t> msEdges{
        1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
        15000, 60000};
    const std::vector<std::uint64_t> usEdges{
        10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000,
        250000};
    const std::vector<std::uint64_t> depthEdges{
        0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
    hQueueWaitMs_ = &registry_.histogram(
        "campaignd_queue_wait_ms",
        "Admission-to-dispatch wait per executed request", msEdges);
    hExecMs_ = &registry_.histogram(
        "campaignd_exec_ms", "Dispatch-to-verdict execution time",
        msEdges);
    hSerializeUs_ = &registry_.histogram(
        "campaignd_serialize_us",
        "Result-frame rendering time", usEdges);
    hE2eMs_ = &registry_.histogram(
        "campaignd_e2e_ms",
        "Admission-to-answer latency per request", msEdges);
    hQueueDepthSampled_ = &registry_.histogram(
        "campaignd_queue_depth_sampled",
        "Queue depth observed by the periodic sampler",
        depthEdges);
    hRunningSampled_ = &registry_.histogram(
        "campaignd_running_sampled",
        "In-execution count observed by the periodic sampler",
        depthEdges);
}

std::uint64_t
CampaignServer::nowUs() const
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

std::uint64_t
CampaignServer::traceIdFor(std::uint64_t requested)
{
    if (requested != 0)
        return requested;
    // Server-assigned ids live in their own (epoch-salted) range
    // so they cannot collide with small client-chosen ones.
    return (std::uint64_t(1) << 48)
           | (traceSeq_.fetch_add(1, std::memory_order_relaxed)
              + 1);
}

CampaignServer::~CampaignServer()
{
    if (started_ && !stopped_)
        stop();
}

void
CampaignServer::start()
{
    if (!params_.memoPath.empty()) {
        // A missing index is a cold start, not an error, and so is
        // one written in another checkpoint format version (a
        // restart across a format bump loses only cached results).
        // A corrupt one is surfaced: it means the drain persistence
        // contract broke somewhere.
        if (::access(params_.memoPath.c_str(), F_OK) == 0) {
            try {
                memo_.load(params_.memoPath);
            } catch (const ckpt::VersionError &e) {
                contutto::warn("campaignd: memo index '%s' not "
                               "loaded, starting cold: %s",
                               params_.memoPath.c_str(), e.what());
            }
        }
    }

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("campaign server: socket() "
                                 "failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (params_.socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("campaign server: socket path "
                                 "too long");
    std::strncpy(addr.sun_path, params_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(params_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr))
        != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("campaign server: cannot bind '"
                                 + params_.socketPath + "'");
    }
    if (::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("campaign server: listen failed");
    }

    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    for (unsigned i = 0; i < params_.workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    if (params_.samplePeriod.count() > 0)
        samplerThread_ = std::thread([this] { samplerLoop(); });
}

void
CampaignServer::samplerLoop()
{
    std::unique_lock<std::mutex> lk(samplerMtx_);
    while (!samplerStop_) {
        samplerCv_.wait_for(lk, params_.samplePeriod);
        if (samplerStop_)
            return;
        std::size_t depth, running;
        {
            std::lock_guard<std::mutex> g(mtx_);
            depth = queue_.size();
            running = running_;
        }
        // The gauges are also maintained at every mutation site;
        // the sampler's job is the *trajectory*: histograms of
        // depth and occupancy over time, so a health scrape after
        // a burst still shows how deep the queue got and for how
        // long, not just where it happens to be now.
        hQueueDepthSampled_->observe(depth);
        hRunningSampled_->observe(running);
        mSamplerTicks_->inc();
    }
}

void
CampaignServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 100);
        if (r <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // An exited thread's stack stays mapped until it is joined:
        // reap finished handlers so a daemon scraped forever does
        // not grow without bound.
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if (it->done.load(std::memory_order_acquire)) {
                it->thread.join();
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        Connection &c = connections_.emplace_back();
        c.thread = std::thread([this, fd, &c] {
            handleConnection(fd);
            c.done.store(true, std::memory_order_release);
        });
    }
}

void
CampaignServer::handleConnection(int fd)
{
    std::string buf;
    for (;;) {
        // Find a full line in what we have.
        std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && !handleLine(fd, line))
                break;
            continue;
        }
        if (buf.size() > kMaxLine) {
            respond(fd, makeError("request line too long"), false);
            break;
        }
        pollfd pfd{fd, POLLIN, 0};
        int r = ::poll(&pfd, 1, 100);
        if (stopping_.load(std::memory_order_relaxed))
            break;
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0)
            continue;
        char chunk[4096];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break; // EOF
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break;
        }
        buf.append(chunk, std::size_t(n));
    }
    ::close(fd);
}

bool
CampaignServer::handleLine(int fd, const std::string &line)
{
    Json doc;
    try {
        doc = Json::parse(line);
        const std::string type = doc.at("type").asString();
        if (type == "ping") {
            Json pong = Json::object();
            pong.set("type", Json::string("pong"));
            return respond(fd, pong, false);
        }
        if (type == "health")
            return respond(fd, healthJson(doc), false);
        if (type == "submit")
            return handleSubmit(fd, doc);
        throw ProtocolError("unknown request type '" + type + "'");
    } catch (const ProtocolError &e) {
        mProtocolErrors_->inc();
        return respond(fd, makeError(e.what()), false);
    }
}

Json
CampaignServer::healthJson(const Json &doc)
{
    Json j = Json::object();
    j.set("type", Json::string("health"));
    if (doc.getString("format", "") == "prometheus") {
        // The exposition is a multi-line text document; the wire is
        // one JSON line per response, so it travels as a string.
        j.set("format", Json::string("prometheus"));
        j.set("text", Json::string(prometheusText()));
        return j;
    }
    metrics::Snapshot snap = registry_.snapshot();
    j.set("uptimeMs", Json::number(nowUs() / 1000));
    Json counters = Json::object();
    for (const auto &c : snap.counters)
        counters.set(c.name, Json::number(c.value));
    Json gauges = Json::object();
    for (const auto &g : snap.gauges)
        gauges.set(g.name, Json::number(g.value));
    Json hists = Json::object();
    for (const auto &h : snap.histograms) {
        Json hj = Json::object();
        Json le = Json::array();
        for (std::uint64_t e : h.le)
            le.append(Json::number(e));
        le.append(Json::makeNull()); // the +Inf bucket
        hj.set("le", std::move(le));
        Json buckets = Json::array();
        for (std::uint64_t b : h.buckets)
            buckets.append(Json::number(b));
        hj.set("buckets", std::move(buckets));
        hj.set("count", Json::number(h.count));
        hj.set("sum", Json::number(h.sum));
        hists.set(h.name, std::move(hj));
    }
    Json m = Json::object();
    m.set("counters", std::move(counters));
    m.set("gauges", std::move(gauges));
    m.set("histograms", std::move(hists));
    j.set("metrics", std::move(m));
    return j;
}

Json
CampaignServer::resultFor(Job &job)
{
    const std::uint64_t t0 = nowUs();
    span::open(job.traceId, "svc.serialize", t0);
    Json res = makeResult(job.req.id,
                          job.status,
                          job.outcome,
                          job.campaign->configHash(),
                          job.req.seed,
                          job.status == "ok" ? job.payload : "");
    attachSimMode(res, *job.campaign);
    // The attribution must travel *inside* the frame, so what is
    // timed is a full rendering of the frame without the trace
    // object; attaching the O(1) trace afterwards does not move it.
    volatile std::size_t rendered = res.dump().size();
    (void)rendered;
    const std::uint64_t t1 = nowUs();
    job.serializeUs = t1 - t0;
    span::close(job.traceId, "svc.serialize", t1);
    hSerializeUs_->observe(job.serializeUs);
    attachTrace(res, job.traceId, job.queueUs, job.execUs,
                job.serializeUs);
    return res;
}

Json
CampaignServer::memoResult(const Request &req,
                           std::shared_ptr<const CampaignJob> campaign,
                           const std::string &payload)
{
    // Its trace attribution is (0, 0, measured serialization).
    Job fast;
    fast.req = req;
    fast.campaign = std::move(campaign);
    fast.status = "ok";
    fast.outcome = "memo";
    fast.payload = payload;
    fast.traceId = traceIdFor(req.traceId);
    return resultFor(fast);
}

bool
CampaignServer::handleSubmit(int fd, const Json &doc)
{
    Request req = Request::fromJson(doc);
    // Parse/validate the config before taking the queue lock: a
    // malformed request must never cost a queue slot.
    auto campaign = std::make_shared<const CampaignJob>(
        req.kind, req.seed, req.config);
    if (req.deadlineMs == 0)
        req.deadlineMs = params_.defaultDeadlineMs;

    // seq for this request's progress stream: strictly increasing
    // across every wait this submit performs (duplicate coalesce,
    // single-flight twin, own execution), so the client sees one
    // monotone sequence however the answer was produced.
    std::uint64_t progressSeq = 0;

    std::shared_ptr<Job> job;
    {
        std::unique_lock<std::mutex> lk(mtx_);
        mSubmitted_->inc();

        // Idempotency: one execution per id, ever.
        auto inFlight = active_.find(req.id);
        if (inFlight != active_.end()) {
            mDuplicates_->inc();
            job = inFlight->second;
            if (!waitForJob(lk, fd, req, job, req.stream,
                            progressSeq))
                return false;
            Json res = resultFor(*job);
            lk.unlock();
            return respond(fd, res, true);
        }
        auto replay = done_.find(req.id);
        if (replay != done_.end()) {
            mDuplicates_->inc();
            // Refresh the replay window.
            doneLru_.splice(doneLru_.end(), doneLru_,
                            replay->second);
            replay->second = std::prev(doneLru_.end());
            Json res = resultFor(**replay->second);
            lk.unlock();
            return respond(fd, res, true);
        }
    }

    // Memoized determinism: a known (config hash, seed) never
    // touches the queue. Outside the server lock — the cache has
    // its own — so hits cost nothing under load.
    std::string hit =
        memo_.lookup(campaign->configHash(), req.seed);
    if (!hit.empty()) {
        mMemoHits_->inc();
        mCompleted_->inc();
        return respond(fd, memoResult(req, campaign, hit), true);
    }

    {
        std::unique_lock<std::mutex> lk(mtx_);
        mMemoMisses_->inc();

        // Single-flight per key: a fresh id whose (config hash,
        // seed) twin is already admitted waits for that twin
        // instead of burning a second execution on work the memo
        // will answer anyway. If the twin fails, this request
        // falls through to earn its own queue slot.
        const auto key =
            std::make_pair(campaign->configHash(), req.seed);
        for (;;) {
            auto twin = keyActive_.find(key);
            if (twin == keyActive_.end())
                break;
            std::shared_ptr<Job> lead = twin->second;
            if (!waitForJob(lk, fd, req, lead, req.stream,
                            progressSeq))
                return false;
            if (lead->status == "ok") {
                mCoalesced_->inc();
                mMemoHits_->inc();
                mCompleted_->inc();
                Json res = memoResult(req, campaign, lead->payload);
                lk.unlock();
                return respond(fd, res, true);
            }
        }

        // Admission control: draining and overload both shed with
        // an explicit hint instead of queueing without bound.
        if (draining_) {
            mShed_->inc();
            std::uint64_t after = params_.shedRetryAfterMs * 4;
            lk.unlock();
            return respond(
                fd, makeShed(req.id, after, "draining"), false);
        }
        if (queue_.size() >= params_.queueCap) {
            mShed_->inc();
            // Deeper backlog, longer hint: crude but monotonic.
            std::uint64_t after =
                params_.shedRetryAfterMs
                + params_.shedRetryAfterMs * running_;
            lk.unlock();
            return respond(
                fd, makeShed(req.id, after, "queue full"), false);
        }

        job = std::make_shared<Job>();
        job->req = req;
        job->campaign = campaign;
        job->seq = seq_++;
        job->admitted = std::chrono::steady_clock::now();
        job->traceId = traceIdFor(req.traceId);
        span::open(job->traceId, "svc.queue", nowUs());
        active_[req.id] = job;
        keyActive_[key] = job;
        queue_.emplace(std::make_pair(-req.priority, job->seq),
                       job);
        mAccepted_->inc();
        gInFlight_->add(1);
        const auto depth = std::int64_t(queue_.size());
        gQueueDepth_->set(depth);
        // Every write is under mtx_, so read-max-write is exact.
        gQueuePeak_->set(std::max(gQueuePeak_->value(), depth));
        workAvail_.notify_one();

        if (!waitForJob(lk, fd, req, job, req.stream, progressSeq))
            return false;
        Json res = resultFor(*job);
        lk.unlock();
        return respond(fd, res, true);
    }
}

bool
CampaignServer::waitForJob(std::unique_lock<std::mutex> &lk, int fd,
                           const Request &req,
                           const std::shared_ptr<Job> &watch,
                           bool streaming, std::uint64_t &seq)
{
    auto donePred = [&] {
        return watch->state == Job::State::done
               || stopping_.load(std::memory_order_relaxed);
    };
    if (!streaming) {
        jobDone_.wait(lk, donePred);
        return watch->state == Job::State::done;
    }

    // Progress frames and the terminal result are written by this
    // same thread, so "seq strictly increasing, nothing after the
    // result" holds by construction, not by buffering discipline.
    const auto t0 = std::chrono::steady_clock::now();
    auto next = t0 + params_.progressPeriod;
    for (;;) {
        if (jobDone_.wait_until(lk, next, donePred))
            break;
        ProgressSample s;
        s.seq = ++seq;
        s.state = watch->state == Job::State::running ? "running"
                                                      : "queued";
        s.elapsedMs = std::uint64_t(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        s.queueDepth = queue_.size();
        s.running = running_;
        s.workDone =
            watch->progress.workDone.load(std::memory_order_relaxed);
        s.workTotal = watch->progress.workTotal.load(
            std::memory_order_relaxed);
        s.heartbeats = watch->progress.heartbeats.load(
            std::memory_order_relaxed);
        s.traceId = watch->traceId;
        Json frame = makeProgress(req.id, s);
        lk.unlock();
        mProgressFrames_->inc();
        bool alive = respondProgress(fd, frame);
        lk.lock();
        if (!alive) {
            // Peer is gone mid-stream. Still wait the job out: the
            // execution must complete (exactly-once), and a client
            // retry of this id will replay the recorded verdict.
            jobDone_.wait(lk, donePred);
            break;
        }
        // Keep the cadence: an injected delay (or a slow peer) must
        // not produce a burst of catch-up frames afterwards.
        next += params_.progressPeriod;
        auto now = std::chrono::steady_clock::now();
        if (next < now)
            next = now + params_.progressPeriod;
    }
    return watch->state == Job::State::done;
}

bool
CampaignServer::respondProgress(int fd, const Json &frame)
{
    std::string line = frame.dump();
    line += '\n';

    const FaultPlan &f = params_.faults;
    std::uint64_t n = progressTick_.fetch_add(1) + 1;
    auto fires = [n](unsigned every) {
        return every != 0 && n % every == 0;
    };
    // Progress is best-effort telemetry: an injected fault mangles
    // THIS frame (the client sees a seq gap or a torn line) but
    // never closes the stream — only the result frame owns the
    // connection's fate.
    if (fires(f.dropEveryN)) {
        mFaults_->inc();
        return true;
    }
    if (fires(f.truncateEveryN)) {
        mFaults_->inc();
        return writeAll(fd, line.data(), line.size() / 2);
    }
    if (fires(f.delayEveryN)) {
        mFaults_->inc();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(f.delayMs));
    }
    return writeAll(fd, line.data(), line.size());
}

void
CampaignServer::workerLoop(unsigned index)
{
    for (;;) {
        std::shared_ptr<Job> job;
        std::chrono::steady_clock::time_point dispatched;
        {
            std::unique_lock<std::mutex> lk(mtx_);
            workAvail_.wait(lk, [&] {
                return !queue_.empty()
                       || stopping_.load(
                           std::memory_order_relaxed);
            });
            if (queue_.empty()) {
                // stopping_ and nothing left: drain complete.
                return;
            }
            job = queue_.begin()->second;
            queue_.erase(queue_.begin());
            gQueueDepth_->set(std::int64_t(queue_.size()));
            job->state = Job::State::running;
            ++running_;
            gRunning_->set(std::int64_t(running_));
            liveJobs_[index] = job;
            // Dispatch closes the queue stage of the trace: the
            // admission-to-here wait is the exact queueUs the
            // result frame will report.
            dispatched = std::chrono::steady_clock::now();
            job->queueUs = std::uint64_t(
                std::chrono::duration_cast<
                    std::chrono::microseconds>(dispatched
                                               - job->admitted)
                    .count());
            const std::uint64_t t = nowUs();
            span::close(job->traceId, "svc.queue", t);
            span::open(job->traceId, "svc.exec", t);
            hQueueWaitMs_->observe(job->queueUs / 1000);
        }

        runJob(job, index);

        {
            std::lock_guard<std::mutex> lk(mtx_);
            const auto finished = std::chrono::steady_clock::now();
            job->execUs = std::uint64_t(
                std::chrono::duration_cast<
                    std::chrono::microseconds>(finished
                                               - dispatched)
                    .count());
            span::close(job->traceId, "svc.exec", nowUs());
            hExecMs_->observe(job->execUs / 1000);
            hE2eMs_->observe(std::uint64_t(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(finished
                                               - job->admitted)
                    .count()));
            retire(job);
            --running_;
            gRunning_->set(std::int64_t(running_));
            liveJobs_[index] = nullptr;
            doneLru_.push_back(job);
            done_[job->req.id] = std::prev(doneLru_.end());
            while (done_.size() > params_.completedCap) {
                done_.erase(doneLru_.front()->req.id);
                doneLru_.pop_front();
            }
        }
        jobDone_.notify_all();
    }
}

void
CampaignServer::retire(const std::shared_ptr<Job> &job)
{
    job->state = Job::State::done;
    mCompleted_->inc();
    if (job->status == "error")
        mFailed_->inc();
    else if (job->status == "timeout")
        mTimedOut_->inc();
    else if (job->status == "cancelled")
        mCancelled_->inc();
    gInFlight_->sub(1);
    active_.erase(job->req.id);
    auto ka = keyActive_.find(
        std::make_pair(job->campaign->configHash(), job->req.seed));
    if (ka != keyActive_.end() && ka->second == job)
        keyActive_.erase(ka);
}

void
CampaignServer::runJob(const std::shared_ptr<Job> &job,
                       unsigned worker)
{
    using sim::CampaignSupervisor;

    // Budget left after the queue wait; an expired request is
    // answered without burning a worker on doomed work.
    std::chrono::milliseconds remaining{0};
    if (job->req.deadlineMs != 0) {
        auto waited = std::chrono::duration_cast<
            std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - job->admitted);
        if (waited
            >= std::chrono::milliseconds(job->req.deadlineMs)) {
            job->status = "timeout";
            job->outcome = "expiredInQueue";
            job->error = "deadline exceeded while queued";
            return;
        }
        remaining =
            std::chrono::milliseconds(job->req.deadlineMs)
            - waited;
    }

    // A twin (config hash, seed) may have finished while this one
    // waited; answering from the memo keeps one-execution-per-key.
    std::string hit = memo_.lookup(job->campaign->configHash(),
                                   job->req.seed);
    if (!hit.empty()) {
        mMemoHits_->inc();
        job->status = "ok";
        job->outcome = "memo";
        job->payload = hit;
        return;
    }

    const bool injectCrash =
        params_.faults.crashEveryN != 0
        && executionTick_.fetch_add(1) % params_.faults.crashEveryN
               == params_.faults.crashEveryN - 1;

    CampaignSupervisor::Params sp;
    sp.shards = 1;
    sp.mode = sim::ShardedExecutor::Mode::serial;
    sp.parallelAttempts = params_.attempts;
    sp.serialAttempts = 0;
    sp.watchdogInterval = params_.watchdogInterval;
    sp.cancelGrace = params_.cancelGrace;
    sp.backoffSeed = job->req.seed;
    // The watchdog tick doubles as the request's liveness signal:
    // every scan stamps a heartbeat on the progress board, which
    // streaming waiters forward in their frames. A stalled campaign
    // shows heartbeats advancing while workDone does not.
    sp.onTick = [job] {
        job->progress.heartbeats.fetch_add(
            1, std::memory_order_relaxed);
    };
    CampaignSupervisor sup(sp);
    {
        std::lock_guard<std::mutex> lk(mtx_);
        mExecutions_->inc();
        if (job->campaign->sampled())
            mSampledJobs_->inc();
        if (injectCrash)
            mFaults_->inc();
        liveSupervisors_[worker] = &sup;
        if (stopping_.load(std::memory_order_relaxed))
            sup.cancelAll();
    }

    std::string payload;
    bool crashArmed = injectCrash;
    std::vector<CampaignSupervisor::TaskSpec> tasks(1);
    tasks[0].deadline = remaining;
    tasks[0].fn = [&](const std::atomic<bool> &cancel) {
        if (crashArmed) {
            // The chaos hook: die exactly once, before any work,
            // so the supervisor's retry recomputes from scratch.
            crashArmed = false;
            throw std::runtime_error(
                "chaos: injected worker crash");
        }
        payload = job->campaign->run(cancel, &job->progress);
    };
    auto farm = sup.run(tasks);

    {
        std::lock_guard<std::mutex> lk(mtx_);
        liveSupervisors_[worker] = nullptr;
    }

    const CampaignSupervisor::TaskReport &rep = farm.tasks[0];
    job->outcome = CampaignSupervisor::outcomeName(rep.outcome);
    switch (rep.outcome) {
      case CampaignSupervisor::TaskOutcome::ok:
      case CampaignSupervisor::TaskOutcome::okRetried:
      case CampaignSupervisor::TaskOutcome::okDegraded:
        job->status = "ok";
        job->payload = payload;
        memo_.insert(job->campaign->configHash(), job->req.seed,
                     payload);
        break;
      case CampaignSupervisor::TaskOutcome::timedOut:
        job->status = "timeout";
        job->error = rep.error;
        break;
      case CampaignSupervisor::TaskOutcome::cancelled:
        job->status = "cancelled";
        job->error = "server shutting down";
        break;
      case CampaignSupervisor::TaskOutcome::quarantined:
        job->status = "error";
        job->error = rep.error;
        break;
    }
}

bool
CampaignServer::respond(int fd, const Json &response,
                        bool faultable)
{
    std::string line = response.dump();
    line += '\n';

    if (faultable) {
        const FaultPlan &f = params_.faults;
        std::uint64_t n = responseTick_.fetch_add(1) + 1;
        auto fires = [n](unsigned every) {
            return every != 0 && n % every == 0;
        };
        if (fires(f.dropEveryN)) {
            mFaults_->inc();
            // Say nothing: the client's timeout + retry path (and
            // the server's idempotency) must cover this.
            return false;
        }
        if (fires(f.truncateEveryN)) {
            mFaults_->inc();
            writeAll(fd, line.data(), line.size() / 2);
            return false;
        }
        if (fires(f.delayEveryN)) {
            mFaults_->inc();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(f.delayMs));
        }
    }
    return writeAll(fd, line.data(), line.size());
}

void
CampaignServer::requestDrain()
{
    std::lock_guard<std::mutex> lk(mtx_);
    draining_ = true;
    gDraining_->set(1);
}

void
CampaignServer::logDrainCancel(const Job &job, const char *state)
{
    // One structured line per straggler a blown drain budget killed:
    // enough to answer "which request, which work, how much deadline
    // was left" from the log alone.
    std::int64_t remainingMs = -1; // -1: request had no deadline
    if (job.req.deadlineMs != 0) {
        auto elapsed = std::chrono::duration_cast<
            std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - job.admitted);
        remainingMs = std::int64_t(job.req.deadlineMs)
                      - std::int64_t(elapsed.count());
    }
    Json j = Json::object();
    j.set("event", Json::string("drain-cancel"));
    j.set("id", Json::string(job.req.id));
    j.set("key",
          Json::string(hashHex(job.campaign->configHash()) + ":"
                       + std::to_string(job.req.seed)));
    j.set("state", Json::string(state));
    j.set("deadlineRemainingMs", Json::number(remainingMs));
    contutto::warn("campaignd: %s", j.dump().c_str());
    mDrainCancelled_->inc();
}

bool
CampaignServer::stop()
{
    if (!started_ || stopped_)
        return true;
    requestDrain();

    // Phase 1: wait for the queue and the in-flight jobs to empty
    // within the drain budget.
    bool clean = true;
    {
        std::unique_lock<std::mutex> lk(mtx_);
        clean = jobDone_.wait_for(lk, params_.drainTimeout, [&] {
            return queue_.empty() && running_ == 0;
        });
        if (!clean) {
            // Budget blown. Jobs that never started are answered
            // `cancelled` right here; running ones get their
            // supervisors reeled in cooperatively and report the
            // same way. Every admitted request still gets an
            // explicit answer — cancellation, not silence.
            for (auto &entry : queue_) {
                Job &job = *entry.second;
                logDrainCancel(job, "queued");
                job.status = "cancelled";
                job.outcome = "cancelled";
                job.error = "server shutting down";
                retire(entry.second);
            }
            queue_.clear();
            gQueueDepth_->set(0);
            for (unsigned i = 0; i < params_.workers; ++i) {
                if (liveSupervisors_[i] == nullptr)
                    continue;
                if (liveJobs_[i])
                    logDrainCancel(*liveJobs_[i], "running");
                liveSupervisors_[i]->cancelAll();
            }
            jobDone_.notify_all();
            // Stragglers unwind within the cancel grace; their
            // waiters respond before we tear the threads down.
            jobDone_.wait_for(lk, params_.drainTimeout, [&] {
                return running_ == 0;
            });
        }
    }
    stopping_.store(true);
    workAvail_.notify_all();
    jobDone_.notify_all();
    {
        std::lock_guard<std::mutex> lk(samplerMtx_);
        samplerStop_ = true;
    }
    samplerCv_.notify_all();

    // Phase 2: tear down threads. Workers exit when the queue is
    // empty; connections notice stopping_ within one poll tick.
    if (samplerThread_.joinable())
        samplerThread_.join();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (Connection &c : connections_)
        c.thread.join();
    connections_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(params_.socketPath.c_str());

    // Phase 3: persist the memo index so the next incarnation
    // starts warm — through the atomic, fsynced checkpoint writer.
    if (!params_.memoPath.empty())
        memo_.save(params_.memoPath);

    stopped_ = true;
    return clean;
}

} // namespace contutto::service
