/**
 * @file
 * CampaignClient: the retrying, deadline-aware client library.
 *
 * One call = one answered request. Underneath, the client absorbs
 * everything the overload-hardened server (and the chaos plan) can
 * throw at it:
 *
 *  - *Shed responses* are not errors: the client sleeps the
 *    server's retryAfterMs hint (plus seeded jitter, so a burst of
 *    shed clients doesn't re-stampede in lock-step) and resubmits.
 *
 *  - *Lost/truncated responses and refused connections* trigger a
 *    reconnect with jittered exponential backoff. The request id is
 *    reused verbatim on every retry, so the server's idempotency
 *    guarantees at-most-one execution however many times the wire
 *    eats the answer.
 *
 *  - *A per-call wall deadline* bounds the whole retry dance; an
 *    exhausted budget returns Outcome::timedOut locally.
 *
 * Backoff is deterministic per (seed, attempt): two clients with
 * different seeds jitter differently, one client re-run with the
 * same seed sleeps the same schedule — the chaos harness depends on
 * that for reproducible burst shapes.
 */

#ifndef CONTUTTO_SERVICE_CLIENT_HH
#define CONTUTTO_SERVICE_CLIENT_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "service/protocol.hh"
#include "sim/random.hh"

namespace contutto::service
{

class CampaignClient
{
  public:
    struct Params
    {
        std::string socketPath;
        /** Whole-call budget: connect + retries + response. */
        std::chrono::milliseconds callTimeout{30000};
        /** Per-response wait before the attempt is abandoned and
         *  the request retried (covers dropped responses). */
        std::chrono::milliseconds responseTimeout{5000};
        /** @{ Jittered exponential backoff between attempts:
         *  uniform in [base, base * 2^attempt], capped. */
        std::chrono::milliseconds backoffBase{5};
        std::chrono::milliseconds backoffCap{1000};
        std::uint64_t jitterSeed = 1;
        /** @} */
        /** Attempts before giving up (connects + resubmits). */
        unsigned maxAttempts = 16;
    };

    /** Why submit() returned; `response` is valid for ok/shed. */
    enum class Outcome
    {
        ok,          ///< Terminal result response received.
        shedGiveUp,  ///< Still shed after maxAttempts.
        timedOut,    ///< callTimeout exhausted client-side.
        error,       ///< Server error response or protocol breach.
        unreachable, ///< Could not connect within the attempts.
    };

    struct Reply
    {
        Outcome outcome = Outcome::error;
        /** The terminal response line, parsed (ok / shedGiveUp /
         *  error-with-response). */
        Json response = Json::makeNull();
        /** Attempts actually made. */
        unsigned attempts = 0;
        /** Sheds absorbed along the way (retried, not terminal). */
        unsigned shedRetries = 0;
        std::string error;
    };

    explicit CampaignClient(const Params &params);

    /**
     * Called from submit(), on the calling thread, once per
     * `progress` frame received for a stream=true request. Frames
     * are best-effort telemetry: the wire (or the chaos plan) may
     * drop or tear individual ones, so observers must tolerate seq
     * gaps; the terminal result is unaffected either way.
     */
    using ProgressFn = std::function<void(const Json &frame)>;
    void onProgress(ProgressFn fn) { progressFn_ = std::move(fn); }

    /** Submit @p request, retrying until answered or exhausted. */
    Reply submit(const Request &request);

    /** One health round-trip; @p format "" for the JSON snapshot
     *  or "prometheus" for the text exposition. */
    Reply health(const std::string &format = "");

    /** @return true when the server answers a ping within
     *  @p timeout, polling through connection refusals. */
    bool waitReady(std::chrono::milliseconds timeout);

  private:
    /** One connect + send + single-line receive. @return empty on
     *  any transport failure (caller backs off and retries). */
    std::string roundTrip(const std::string &line,
                          std::chrono::milliseconds timeout);
    /** Like roundTrip, but consumes `progress` frames (feeding
     *  progressFn_) until a terminal line, EOF or @p deadline. */
    std::string streamTrip(const std::string &line,
                           std::chrono::milliseconds lineTimeout,
                           std::chrono::steady_clock::time_point
                               deadline);
    Reply oneShot(const Json &request);
    void backoff(unsigned attempt,
                 std::chrono::milliseconds atLeast);

    Params params_;
    Rng rng_;
    ProgressFn progressFn_;
};

} // namespace contutto::service

#endif // CONTUTTO_SERVICE_CLIENT_HH
