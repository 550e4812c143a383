/**
 * @file
 * A simple out-of-order core model for latency-sensitivity studies.
 *
 * The paper's Figures 6 and 7 measure how application performance
 * responds to memory latency. We model each application as a
 * synthetic instruction stream characterized by its off-chip memory
 * behaviour: LLC misses per kilo-instruction, the fraction of misses
 * that are dependent pointer chases (serialized), the fraction that
 * are prefetch-friendly streams (deeply overlapped), and the
 * memory-level parallelism available for the rest. Misses are issued
 * through the *simulated* DMI channel and memory buffer, so the
 * measured runtime responds to the real modelled latency, including
 * tag exhaustion effects.
 */

#ifndef CONTUTTO_CPU_CORE_MODEL_HH
#define CONTUTTO_CPU_CORE_MODEL_HH

#include <functional>
#include <string>

#include "cpu/channel_trip.hh"
#include "sim/random.hh"
#include "trace/capture.hh"

namespace contutto::cpu
{

/** Memory-behaviour fingerprint of one application. */
struct WorkloadProfile
{
    std::string name;
    /** Core cycles per instruction with a perfect memory system. */
    double baseCpi = 0.7;
    /** LLC (off-chip) misses per kilo-instruction. */
    double missesPerKiloInstr = 1.0;
    /** Fraction of misses that are stores (write commands). */
    double writeFraction = 0.3;
    /** Fraction of misses that are dependent pointer chases. */
    double chaseFraction = 0.1;
    /** Fraction of misses that belong to prefetchable streams. */
    double streamFraction = 0.3;
    /** Outstanding-miss limit for ordinary (random) misses. */
    unsigned mlp = 4;
    /** Outstanding-miss limit for stream misses (prefetcher depth). */
    unsigned streamMlp = 24;
    /** Bytes the application touches (address range of misses). */
    std::uint64_t workingSet = 64 * MiB;
};

/** Runs one profile to completion and reports the runtime. */
class CoreModel : public SimObject, private ChannelTrips<CoreModel>
{
  public:
    struct Params
    {
        std::uint64_t instructions = 2000000;
        /** Per-miss processor-side overhead outside the channel. */
        Tick nestOverhead = nanoseconds(44);
        std::uint64_t seed = 42;
        /**
         * Sampled execution (sim/sampling.hh): when set, the
         * controller decides per miss whether it travels the real
         * channel or completes from the calibrated estimate. Null
         * runs every miss in full detail, exactly as before.
         */
        sim::SamplingController *sampler = nullptr;
        /**
         * Optional capture hook (trace/capture.hh): every off-chip
         * miss is appended to the sink as it issues — in both the
         * detailed and fast-forwarded regimes, so a trace captured
         * under sampling still holds the full logical access
         * stream.
         */
        trace::CaptureSink *capture = nullptr;
    };

    struct Result
    {
        Tick runtime = 0;
        std::uint64_t instructions = 0;
        std::uint64_t misses = 0;
        double cpi = 0.0;
        /** Instructions per second at the modelled clock. */
        double ips = 0.0;
    };

    CoreModel(const std::string &name, EventQueue &eq,
              const ClockDomain &domain, stats::StatGroup *parent,
              const WorkloadProfile &profile, const Params &params,
              HostMemPort &port);

    ~CoreModel() override;

    /** Begin execution; @p done fires at completion. */
    void start(std::function<void(const Result &)> done);

    /** Instructions retired so far (live, for progress boards). */
    std::uint64_t instructionsDone() const
    {
        return instructionsDone_;
    }

  private:
    enum class MissKind
    {
        chase,
        stream,
        random,
    };

    void advance();
    void missPoint();
    void issueMiss(MissKind kind);
    friend class ChannelTrips<CoreModel>;
    /** A miss of kind @p token has completed. */
    void tripDone(std::uint32_t token);
    void maybeFinish();

    WorkloadProfile profile_;
    Params params_;
    Rng rng_;

    bool running_ = false;
    std::uint64_t instructionsDone_ = 0;
    std::uint64_t missesIssued_ = 0;
    std::uint64_t missesDone_ = 0;
    unsigned outstandingRandom_ = 0;
    unsigned outstandingStream_ = 0;
    bool chaseOutstanding_ = false;
    bool stalled_ = false;
    MissKind pendingKind_ = MissKind::random;
    bool pendingMiss_ = false;
    Addr streamCursor_ = 0;
    Tick startedAt_ = 0;
    std::function<void(const Result &)> done_;
    EventFunctionWrapper advanceEvent_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_CORE_MODEL_HH
