/**
 * @file
 * DMI link training and FRTL measurement.
 *
 * Before functional loads/stores can flow, the link goes through
 * bit, word and frame alignment (paper §3.3(i)), then both ends
 * measure the Frame Round Trip Latency by exchanging frames with
 * specific signatures (§2.3). The processor hardware imposes a
 * maximum tolerable FRTL; if the buffer's pipeline is too deep,
 * training fails — which is exactly the design constraint that
 * forced ConTutto's 2-stage CRC and FIFO-less receive capture.
 *
 * Training does not always succeed in one try on real hardware
 * (§3.4); lockProbability < 1 models that, and the firmware layer
 * retries with an FPGA reset in between.
 */

#ifndef CONTUTTO_DMI_TRAINING_HH
#define CONTUTTO_DMI_TRAINING_HH

#include <functional>
#include <string>

#include "dmi/link.hh"
#include "sim/random.hh"

namespace contutto::dmi
{

/** Outcome of a training run. */
struct TrainingResult
{
    bool success = false;
    /** Total alignment attempts across all phases. */
    unsigned attempts = 0;
    /** Measured frame round-trip latency (max over probes). */
    Tick frtl = 0;
    std::string failReason;
};

/**
 * Drives the training sequence between a host link endpoint and a
 * buffer link endpoint, standing in for the training logic in the
 * POWER8 nest and in the buffer's MBI.
 */
class LinkTrainer : public SimObject
{
  public:
    struct Params
    {
        /** Per-attempt chance that an alignment phase locks. */
        double lockProbability = 1.0;
        /** Alignment attempts per phase before giving up. */
        unsigned maxAttemptsPerPhase = 16;
        /** Processor's maximum tolerable FRTL (hardware limit). */
        Tick maxFrtl = nanoseconds(120);
        /** How long to wait for a phase response. */
        Tick responseTimeout = microseconds(1);
        std::uint64_t seed = 99;
    };

    LinkTrainer(const std::string &name, EventQueue &eq,
                const ClockDomain &domain, stats::StatGroup *parent,
                const Params &params, HostLink &host, BufferLink &buffer,
                DmiChannel &down, DmiChannel &up);

    ~LinkTrainer() override;

    /** Begin training; @p done fires when it succeeds or fails. */
    void start(std::function<void(const TrainingResult &)> done);

    /** Result of the last completed run. */
    const TrainingResult &result() const { return result_; }

    /** True while a run is in progress. */
    bool busy() const { return state_ != State::idle; }

    struct TrainerStats
    {
        stats::Scalar runs;          ///< Training runs completed.
        stats::Scalar failures;      ///< Runs that did not lock.
        stats::Scalar alignAttempts; ///< Alignment probes sent, total.
        stats::Distribution frtlMeasured; ///< Measured FRTL (ns).
    };

    /** The nonce/lock RNG stream (checkpointed by campaigns: every
     *  retrain advances it, so a resumed run must pick up at the
     *  same position). */
    Rng &rng() { return rng_; }

  private:
    enum class State
    {
        idle,
        bitAlign,
        wordAlign,
        frameAlign,
        frtl,
        done,
    };

    /** Signature opcodes, packed into the high byte of trainSig. */
    enum Op : std::uint32_t
    {
        opPatternA = 1,
        opPatternB = 2,
        opPatternC = 3,
        opLockAck = 4,
        opFrtlProbe = 5,
        opFrtlEcho = 6,
    };

    static std::uint32_t pack(Op op, std::uint32_t nonce);

    void sendPhaseProbe();
    void hostSigArrived(std::uint32_t sig);
    void bufferSigArrived(std::uint32_t sig);
    void onTimeout();
    void advancePhase();
    void finish(bool success, const std::string &reason);

    Params params_;
    HostLink &host_;
    BufferLink &buffer_;
    DmiChannel &down_;
    DmiChannel &up_;
    Rng rng_;

    State state_ = State::idle;
    unsigned phaseAttempts_ = 0;
    std::uint32_t nonce_ = 0;
    Tick probeSentAt_ = 0;
    unsigned probesDone_ = 0;
    Tick frtlMax_ = 0;
    TrainingResult result_;
    std::function<void(const TrainingResult &)> done_;
    EventFunctionWrapper timeoutEvent_;
    TrainerStats stats_;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_TRAINING_HH
