/**
 * @file
 * Campaign service wire protocol: newline-delimited JSON.
 *
 * One request per line, one response per line. A submit names a
 * campaign *kind*, a seed, and a config object of per-kind knob
 * overrides; the server answers with a result whose `payload`
 * member is a deterministic rendering of the campaign's Result.
 * Determinism is the protocol's load-bearing wall: the same
 * (config hash, seed) always yields byte-identical payload text,
 * whether freshly computed, replayed from the memo cache, or
 * recomputed by a restarted server after a drain.
 *
 * Request lines:
 *   {"type":"submit","id":"...","kind":"ras_soak|crash|spin|spec",
 *    "seed":N,"priority":N,"deadlineMs":N,"config":{...},
 *    "stream":bool,"traceId":N}
 *   {"type":"health"}          full metrics-registry snapshot: the
 *                              server's only counter plane
 *   {"type":"health","format":"prometheus"}
 *                              same registry, text exposition
 *                              wrapped in {"text":"..."}
 *   {"type":"ping"}            liveness probe
 *
 * Response lines:
 *   {"type":"result","id":"...","status":"ok|error|timeout|
 *    cancelled","outcome":"...","configHash":"hex","seed":N,
 *    "payload":{...},"trace":{"id":N,"queueUs":N,"execUs":N,
 *    "serializeUs":N}}         terminal answer for a submit
 *   {"type":"progress","id":"...","seq":N,"state":"queued|
 *    running","elapsedMs":N,...}
 *                              streamed before the result when the
 *                              submit carried stream:true; seq is
 *                              strictly increasing per request and
 *                              no frame ever follows the result
 *   {"type":"shed","id":"...","retryAfterMs":N,"reason":"..."}
 *                              admission refused; try again later
 *   {"type":"error","message":"..."}   malformed request
 *   {"type":"health",...} / {"type":"pong"}
 *
 * The campaign kinds:
 *   ras_soak  ras::SoakCampaign       (multi-fault soak, §4 RAS)
 *   crash     storage::CrashRecoveryCampaign (power-cut campaign)
 *   spin      a cancellable wall-clock spin — the calibration /
 *             chaos workload: it holds a worker for `spinMs` real
 *             milliseconds, which makes backpressure and deadline
 *             behaviour testable without guessing how fast the
 *             simulator runs on this machine.
 *   spec      one SPEC CINT2006 profile on a freshly built channel
 *             (knobs: benchmark index, buffer 0=centaur/1=contutto,
 *             knob = Centaur config index or ConTutto knob position,
 *             instructions, and the sampled-execution knobs
 *             sampleMode/sampleWarmup/sampleWindow/samplePeriod).
 *             The sampling knobs fold into the config hash, so a
 *             sampled run never shares a memo entry with a detailed
 *             one; result frames carry "simMode" (and the knobs,
 *             when sampled) for every kind.
 *   trace     replay one binary memory trace (src/trace) through a
 *             freshly built channel (knobs: path, buffer/knob as
 *             for spec, timed 1=recorded-time replay/0=window
 *             replay, window, and the sampling knobs). The trace
 *             file is validated at admission and its checksum —
 *             not its path — folds into the config hash, so a memo
 *             entry can only ever be satisfied by the exact trace
 *             bytes that produced it; the file is re-validated
 *             against the admitted checksum when the job runs.
 */

#ifndef CONTUTTO_SERVICE_PROTOCOL_HH
#define CONTUTTO_SERVICE_PROTOCOL_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "ras/soak_campaign.hh"
#include "sim/json.hh"
#include "sim/sampling.hh"
#include "storage/crash_campaign.hh"

namespace contutto::service
{

/** @{ The wire format is the repository's JSON library
 *  (sim/json.hh); malformed protocol input is its error type. */
using contutto::Json;
using ProtocolError = JsonError;
/** @} */

/** A parsed submit request. */
struct Request
{
    std::string id;
    std::string kind;
    std::uint64_t seed = 1;
    /** Larger runs first; ties in arrival order. */
    std::int64_t priority = 0;
    /** Wall budget from admission to answer (0: unlimited). */
    std::uint64_t deadlineMs = 0;
    /** Subscribe to progress frames before the result frame. */
    bool stream = false;
    /** Client-chosen trace id threaded through admission, queue,
     *  execution and respond (0: server assigns one). */
    std::uint64_t traceId = 0;
    Json config = Json::object();

    /** Parse a submit line (already known to be type=submit). */
    static Request fromJson(const Json &j);
    Json toJson() const;
};

/**
 * A validated, runnable campaign configuration: the union of the
 * supported kinds, with the seed threaded in and the stable config
 * hash (seed excluded) precomputed. Construction validates the
 * kind and knob names, so a typo'd config fails at admission, not
 * after a queue wait.
 */
class CampaignJob
{
  public:
    /** Throws ProtocolError on unknown kind or malformed config. */
    CampaignJob(const std::string &kind, std::uint64_t seed,
                const Json &config);

    const std::string &kind() const { return kind_; }
    std::uint64_t seed() const { return seed_; }
    /** FNV-1a of (kind, knobs); seed deliberately excluded. The
     *  sampled-execution knobs are folded in when enabled. */
    std::uint64_t configHash() const { return configHash_; }

    /** True when this job executes in SMARTS-sampled mode. */
    bool
    sampled() const
    {
        return samplingConfig().enabled;
    }
    /** The sampled-execution knobs (disabled for kinds without
     *  them). */
    const sim::SamplingConfig &
    samplingConfig() const
    {
        return kind_ == "trace" ? trace_.sampling : spec_.sampling;
    }

    /**
     * Live progress board for one running campaign: the campaign
     * body publishes work counts, the supervisor tick stamps
     * heartbeats, and the streaming waiter samples all of it into
     * progress frames. Atomics because the writer (worker thread),
     * the ticker (watchdog thread) and the readers (connection
     * threads) never share a lock.
     */
    struct Progress
    {
        std::atomic<std::uint64_t> workDone{0};
        std::atomic<std::uint64_t> workTotal{0};
        /** Supervisor watchdog ticks observed while running. */
        std::atomic<std::uint64_t> heartbeats{0};
    };

    /**
     * Run the campaign to its deterministic payload. @p cancel is
     * the supervisor's cooperative token; a cancelled run throws
     * Cancelled (the supervisor then reports timedOut/cancelled).
     * A non-null @p progress is updated as the campaign advances;
     * it never influences the payload (determinism is untouched).
     */
    std::string run(const std::atomic<bool> &cancel,
                    Progress *progress = nullptr) const;

    /** Thrown by run() when the cancel token stopped the work. */
    struct Cancelled
    {
    };

  private:
    /** Knobs of the "spec" kind: one CINT2006 profile on a fresh
     *  single-channel system, optionally sampled. */
    struct SpecSpec
    {
        unsigned benchmark = 3; ///< index into specCint2006 (mcf)
        unsigned buffer = 0;    ///< 0: Centaur, 1: ConTutto
        /** Centaur config index (0-3) or ConTutto knob (0-7). */
        unsigned knob = 0;
        std::uint64_t instructions = 100000;
        sim::SamplingConfig sampling{};
    };

    /** Knobs of the "trace" kind: one binary trace replayed on a
     *  fresh single-channel system. */
    struct TraceSpec
    {
        std::string path;
        unsigned buffer = 0; ///< 0: Centaur, 1: ConTutto
        unsigned knob = 0;
        /** 1: recorded-time replay, 0: window-model replay. */
        unsigned timed = 1;
        /** MLP window for window-model replay. */
        unsigned window = 8;
        /** The admitted trace file's validated checksum. */
        std::uint64_t checksum = 0;
        sim::SamplingConfig sampling{};
    };

    std::string runSpec(const std::atomic<bool> &cancel,
                        Progress *progress, Json payload) const;
    std::string runTrace(const std::atomic<bool> &cancel,
                         Progress *progress, Json payload) const;

    std::string kind_;
    std::uint64_t seed_ = 1;
    std::uint64_t configHash_ = 0;
    ras::SoakCampaign::Spec soak_;
    storage::CrashRecoveryCampaign::Spec crash_;
    std::uint64_t spinMs_ = 0;
    SpecSpec spec_;
    TraceSpec trace_;
};

/** One sampled point of a request's life, for a progress frame. */
struct ProgressSample
{
    std::uint64_t seq = 0;
    /** "queued" or "running". */
    const char *state = "queued";
    std::uint64_t elapsedMs = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t running = 0;
    std::uint64_t workDone = 0;
    std::uint64_t workTotal = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t traceId = 0;
};

/** @{ Response constructors (each dumps to one line, no '\n'). */
Json makeResult(const std::string &id, const std::string &status,
                const std::string &outcome,
                std::uint64_t configHash, std::uint64_t seed,
                const std::string &payloadText);
Json makeProgress(const std::string &id,
                  const ProgressSample &sample);
Json makeShed(const std::string &id, std::uint64_t retryAfterMs,
              const std::string &reason);
Json makeError(const std::string &message);
/** @} */

/**
 * Attach the request-level trace attribution to a result frame:
 * the trace id plus exact queue-wait, execution and serialization
 * microseconds. The three stages partition the server-side life of
 * the request, so their sum tracks the client-observed end-to-end
 * latency to within scheduling noise.
 */
void attachTrace(Json &result, std::uint64_t traceId,
                 std::uint64_t queueUs, std::uint64_t execUs,
                 std::uint64_t serializeUs);

/**
 * Attach the execution-regime attribution to a result frame:
 * "simMode" ("detailed" or "sampled") on every result, plus the
 * sampling knobs when the job ran sampled — so a client can always
 * tell which regime produced a payload, memoized or fresh.
 */
void attachSimMode(Json &result, const CampaignJob &job);

/** 16-digit lower-case hex, the canonical hash spelling. */
std::string hashHex(std::uint64_t h);

} // namespace contutto::service

#endif // CONTUTTO_SERVICE_PROTOCOL_HH
