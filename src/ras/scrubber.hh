/**
 * @file
 * Patrol scrubber: background ECC sweep of a memory image.
 *
 * Demand reads only verify lines the workload touches; a latent
 * single-bit fault in cold memory would sit undetected until a second
 * hit in the same word makes it uncorrectable. The patrol scrubber
 * walks the whole image on a configurable period — the classic
 * DRAM-scrub strategy server RAS guides mandate — repairing
 * single-bit faults in place and reporting multi-bit ones to the
 * service processor's ErrorLog.
 */

#ifndef CONTUTTO_RAS_SCRUBBER_HH
#define CONTUTTO_RAS_SCRUBBER_HH

#include "firmware/error_log.hh"
#include "mem/mem_image.hh"
#include "sim/sim_object.hh"

namespace contutto::ras
{

/** Periodically verifies and repairs a region of a MemImage. */
class PatrolScrubber : public SimObject
{
  public:
    struct Params
    {
        /** Lines verified per beat. */
        unsigned linesPerBeat = 8;
        /** First byte of the scrubbed region. */
        Addr base = 0;
        /** Region length; 0 means the whole image. */
        std::uint64_t size = 0;
    };

    PatrolScrubber(const std::string &name, EventQueue &eq,
                   const ClockDomain &domain, stats::StatGroup *parent,
                   const Params &params, mem::MemImage &image);

    ~PatrolScrubber() override;

    /** Begin (or resume) patrolling from the current cursor. */
    void start();

    /** Pause patrolling; start() resumes where it stopped. */
    void stop();

    bool running() const { return running_; }

    /** Report multi-bit findings to the FSP log. */
    void attachErrorLog(firmware::ErrorLog *log) { errorLog_ = log; }

    /** Complete sweeps of the region so far. */
    std::uint64_t passes() const
    {
        return std::uint64_t(stats_.scrubPasses.value());
    }

    struct ScrubStats
    {
        stats::Scalar linesScrubbed;
        stats::Scalar scrubCorrected;
        stats::Scalar scrubUncorrectable;
        stats::Scalar scrubPasses;
    };

    const ScrubStats &scrubStats() const { return stats_; }

  private:
    void beat();

    Params params_;
    mem::MemImage &image_;
    firmware::ErrorLog *errorLog_ = nullptr;
    Addr cursor_;
    bool running_ = false;
    EventFunctionWrapper beatEvent_;
    ScrubStats stats_;
};

} // namespace contutto::ras

#endif // CONTUTTO_RAS_SCRUBBER_HH
