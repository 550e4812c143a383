/**
 * @file
 * Trace-driven replay through the simulated memory channel.
 *
 * The paper's core pitch is evaluating *real* software against new
 * memory subsystems; when the software itself cannot run here, a
 * memory-access trace of it can. A trace is a sequence of timed
 * records (delay since the previous record, address, read/write,
 * dependency flag); the replayer issues them through the host port,
 * honouring inter-record compute delays, a memory-level-parallelism
 * window, and dependent-access serialization — so a trace captured
 * once can be replayed against Centaur, ConTutto at any knob
 * setting, or any memory technology, and the runtime responds to
 * the modelled latency. Traces are binary files (trace/format.hh);
 * trace/text.hh converts the hand-writable text form.
 */

#ifndef CONTUTTO_CPU_TRACE_REPLAY_HH
#define CONTUTTO_CPU_TRACE_REPLAY_HH

#include <string>

#include "cpu/cache_hierarchy.hh"
#include "cpu/channel_trip.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"

namespace contutto::cpu
{

/** Replays a trace through a host port. */
class TraceReplayer : public SimObject,
                      private ChannelTrips<TraceReplayer>
{
  public:
    struct Params
    {
        /** Outstanding-access window for independent records. */
        unsigned window = 8;
        /** Per-access processor-side overhead (memory trips only). */
        Tick nestOverhead = nanoseconds(44);
        /**
         * Optional cache hierarchy: when set, the trace carries raw
         * references; hits are served on-chip and only misses (and
         * dirty writebacks) travel the channel.
         */
        CacheHierarchy *caches = nullptr;
        /**
         * Sampled execution (sim/sampling.hh): the controller is
         * consulted once per channel trip (miss or writeback);
         * fast-forwarded trips complete from the calibrated
         * estimate. Cache probes still run functionally in both
         * regimes, so the hierarchy's contents — and every
         * hit/miss/writeback decision — are exact, not sampled.
         */
        sim::SamplingController *sampler = nullptr;
        /**
         * Optional capture hook (trace/capture.hh): every channel
         * trip — post-cache miss or writeback — is appended to the
         * sink as it issues, so replaying one trace can record
         * another (e.g. a post-cache-filter trace).
         */
        trace::CaptureSink *capture = nullptr;
    };

    struct Result
    {
        Tick runtime = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /** Sum of trace compute delays (the memory-independent
         *  floor of the runtime). */
        Tick computeTime = 0;
        /** References served by the caches (when configured). */
        std::uint64_t cacheHits = 0;
        /** Dirty-victim writebacks sent to memory. */
        std::uint64_t writebacks = 0;
        /** Channel trips (misses and writebacks) that travelled
         *  the channel in detail rather than fast-forwarded. */
        std::uint64_t detailed = 0;
    };

    TraceReplayer(const std::string &name, EventQueue &eq,
                  const ClockDomain &domain, stats::StatGroup *parent,
                  const Params &params, HostMemPort &port);

    ~TraceReplayer() override;

    /**
     * Start replaying @p trace; @p done fires at completion. Each
     * record's tickDelta is its compute delay, its address is taken
     * to the 128 B line, and dependent ops drain the window.
     */
    void start(const trace::MappedTrace &trace,
               std::function<void(const Result &)> done);

    /** Records issued so far (live, for progress boards). */
    std::uint64_t issuedSoFar() const { return next_; }

  private:
    void advance();
    void issueCurrent();
    friend class ChannelTrips<TraceReplayer>;
    void tripDone(std::uint32_t) { accessDone(); }
    void accessDone();
    void maybeFinish();

    Params params_;
    const trace::MappedTrace *trace_ = nullptr;
    std::uint64_t next_ = 0;
    /** Record next_, decoded (valid while next_ < recordCount). */
    trace::Record cur_;
    unsigned outstanding_ = 0;
    bool waitingDrain_ = false;
    bool running_ = false;
    Tick startedAt_ = 0;
    Result result_;
    std::function<void(const Result &)> done_;
    EventFunctionWrapper advanceEvent_;
};

/**
 * Replays a binary trace at its recorded issue times, streaming
 * records straight off the mmap.
 *
 * Where TraceReplayer re-times a trace through a window model (so
 * the runtime responds to the modelled latency), TimedTraceReplayer
 * reproduces the captured stimulus exactly: every record issues at
 * its recorded tick regardless of completions — which is what makes
 * a capture→replay round trip drive the channel byte-identically to
 * the run it was captured from. A trace whose origin is already in
 * the past replays under a rigid time shift (deltas preserved), and
 * an attached recapture sink is told the shift so re-captured files
 * stay byte-identical to the input.
 *
 * Sampled mode composes the same way as everywhere else: the
 * controller is consulted per record, and fast-forwarded records
 * complete from the calibrated estimate without touching the
 * channel — the path that streams millions of records per second.
 */
class TimedTraceReplayer : public SimObject,
                           private ChannelTrips<TimedTraceReplayer>
{
  public:
    struct Params
    {
        /** Per-access processor-side overhead (completion side
         *  only; never delays an issue). */
        Tick nestOverhead = nanoseconds(44);
        /** Sampled execution; see TraceReplayer::Params. */
        sim::SamplingController *sampler = nullptr;
        /** Optional recapture sink: every replayed record is
         *  re-recorded at its (shifted) issue tick. */
        trace::CaptureSink *capture = nullptr;
    };

    struct Result
    {
        /** Last completion minus first issue. */
        Tick runtime = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /** Records replayed (== the trace's recordCount). */
        std::uint64_t replayed = 0;
        /** Records that travelled the channel in detail. */
        std::uint64_t detailed = 0;
    };

    TimedTraceReplayer(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent,
                       const Params &params, HostMemPort &port);

    ~TimedTraceReplayer() override;

    /** Start replaying @p trace; @p done fires at completion. */
    void start(const trace::MappedTrace &trace,
               std::function<void(const Result &)> done);

    /** Records issued so far (live, for progress boards). */
    std::uint64_t issuedSoFar() const { return result_.replayed; }

  private:
    void issueDue();
    void scheduleNext();
    friend class ChannelTrips<TimedTraceReplayer>;
    /** Issues at recorded ticks and waits on no completion. */
    static constexpr bool openLoop = true;
    void tripDone(std::uint32_t);
    void maybeFinish();

    Params params_;
    const trace::MappedTrace *trace_ = nullptr;
    std::uint64_t next_ = 0;
    /** Absolute (unshifted) tick of record next_. */
    Tick nextTick_ = 0;
    /** The rigid shift applied to recorded ticks this run. */
    Tick shift_ = 0;
    std::uint64_t outstanding_ = 0;
    bool running_ = false;
    Tick startedAt_ = 0;
    Result result_;
    std::function<void(const Result &)> done_;
    EventFunctionWrapper issueEvent_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_TRACE_REPLAY_HH
