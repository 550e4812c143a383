/**
 * @file
 * SMARTS-style sampled simulation: functional warming between
 * statistically sampled detailed windows.
 *
 * Full-detail SPEC-scale runs pay event-level DMI/MBS/DDR3
 * simulation for every off-chip miss; that cost is the wall-clock
 * ceiling on the Figure 6/7 latency sweeps and on every campaignd
 * request that embeds one. Sampled mode alternates two regimes:
 *
 *  - *Fast-forward*: misses are charged a calibrated per-miss
 *    latency estimate and complete through a single scheduled
 *    event — no frames, no buffer, no DRAM timing. Architectural
 *    state still moves: the workload's RNG streams draw identically
 *    (addresses, kinds, write mix), cache hierarchies are probed
 *    functionally so their contents stay exact, and stores are
 *    applied to the memory image through a functional-write hook.
 *  - *Detailed windows*: scheduled by a seeded systematic sampler,
 *    misses run through the real modelled channel. Each window
 *    leads with a warmup prefix (detailed but unmeasured, so the
 *    channel's row buffers, buffer cache and link state re-warm
 *    after a fast-forwarded gap) followed by a measured body whose
 *    per-miss latencies feed the running estimate and whose
 *    time-per-work observation feeds the variance estimator.
 *
 * The whole-run runtime estimate is stitched SMARTS-style: the mean
 * per-work simulated time over the measured windows, scaled to the
 * full run, with a standard error from the window-to-window variance
 * and a reported 95% confidence interval. The schedule, the
 * estimate, and every charged latency are pure functions of (config,
 * seed, workload), so a sampled run is bit-identical per seed in
 * serial and task-farm execution alike.
 */

#ifndef CONTUTTO_SIM_SAMPLING_HH
#define CONTUTTO_SIM_SAMPLING_HH

#include <functional>

#include "dmi/command.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace contutto::sim
{

/** Knobs of the systematic sampler; all counts are in misses. */
struct SamplingConfig
{
    bool enabled = false;
    /** Detailed-but-unmeasured misses opening each window: the
     *  functional-warming bridge back into event-level state. */
    std::uint64_t warmupUnits = 32;
    /** Measured misses per detailed window. */
    std::uint64_t windowUnits = 128;
    /** Window start-to-start distance; the fraction of misses run
     *  in detail is (warmup + window) / period. */
    std::uint64_t periodUnits = 4096;

    /** True when the knob combination is runnable. */
    bool
    valid() const
    {
        return windowUnits >= 1
            && warmupUnits + windowUnits <= periodUnits;
    }

    /** Stable field-order serialization (config-hash input). */
    void serialize(ckpt::Section &out) const;

    /**
     * Fold this config into a campaign/bench config hash. The
     * sampling knobs change what is simulated, so two runs that
     * differ only in them must never share a memo entry; a disabled
     * config hashes to @p base unchanged so every pre-existing
     * detailed-mode hash (and its memoized results) stays valid.
     */
    std::uint64_t fold(std::uint64_t base) const;
};

/**
 * Running calibrated estimate of the per-miss channel latency, fed
 * by every measured detailed miss and charged to every
 * fast-forwarded one. Integer mean, so the charged latency is
 * exactly reproducible.
 */
class MemoryTimingEstimate
{
  public:
    void
    observe(Tick latency)
    {
        ++count_;
        total_ += latency;
    }

    bool calibrated() const { return count_ != 0; }
    std::uint64_t samples() const { return count_; }

    /** Mean observed latency (0 before calibration). */
    Tick
    perMiss() const
    {
        return count_ ? Tick(total_ / count_) : 0;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t total_ = 0;
};

/** End-of-run summary of one sampled (or detailed) execution. */
struct SamplingReport
{
    bool enabled = false;
    /** Completed measured windows (the variance sample count). */
    std::uint64_t windows = 0;
    std::uint64_t detailedUnits = 0;
    std::uint64_t fastForwardUnits = 0;
    /** Final calibrated per-miss latency estimate, ns. */
    double estimatePerMissNs = 0;
    /** Mean / sample stddev of per-window time-per-work (ticks). */
    double meanTimePerWork = 0;
    double stddevTimePerWork = 0;
    /** Standard error of the mean time-per-work. */
    double stderrTimePerWork = 0;
    /** Whole-run runtime estimate: totalWork * meanTimePerWork. */
    double estimatedRuntimeTicks = 0;
    /** 95% confidence half-width on the runtime estimate. */
    double ciHalfWidthTicks = 0;

    double
    estimatedRuntimeSec() const
    {
        return ticksToSeconds(Tick(estimatedRuntimeTicks));
    }
};

/**
 * The per-run sampling state machine. One controller per workload
 * run; the workload driver (cpu::CoreModel, cpu::TraceReplayer or
 * cpu::TimedTraceReplayer, each through cpu::ChannelTrips::trip)
 * consults it once per off-chip miss and reports measured latencies
 * back. Single-threaded by construction: it lives entirely inside
 * one simulation's event loop.
 */
class SamplingController
{
  public:
    enum class Phase
    {
        /** Detailed, unmeasured: re-warming timing state. */
        warmup,
        /** Detailed, measured: feeding estimate and variance. */
        measure,
        /** Functional warming only; latency charged from the
         *  estimate. */
        fastForward,
    };

    /** @throw FatalError when @p cfg is enabled but not valid(). */
    SamplingController(const SamplingConfig &cfg, std::uint64_t seed);

    const SamplingConfig &config() const { return cfg_; }
    Phase phase() const { return phase_; }

    /**
     * Decide the fate of the next miss. @p workDone is the driver's
     * progress in its own work units (instructions retired, trace
     * records consumed) and @p now the simulated clock; both are
     * recorded at window edges for the time-per-work estimator.
     * @return true when the miss must travel the real channel.
     */
    bool beginMiss(std::uint64_t workDone, Tick now);

    /** True while detailed misses should report their latency. */
    bool measuring() const { return phase_ == Phase::measure; }

    /** Feed one measured detailed-miss latency. */
    void
    observeLatency(Tick latency)
    {
        estimate_.observe(latency);
    }

    /** The latency to charge a fast-forwarded miss. */
    Tick chargedLatency() const { return estimate_.perMiss(); }

    /**
     * Optional functional-warming hook for stores: applied to
     * fast-forwarded writes so the memory image holds exactly the
     * contents a detailed run would have written. The systems'
     * hooks use mem::MemImage::warmWrite, which leaves pages that
     * only ever received zeros unmaterialized.
     */
    using FunctionalWrite =
        std::function<void(Addr, const dmi::CacheLine &)>;
    void
    setFunctionalWrite(FunctionalWrite fn)
    {
        functionalWrite_ = std::move(fn);
    }

    /** Apply a fast-forwarded store via the hook (no-op when
     *  unset). */
    void
    warmWrite(Addr addr, const dmi::CacheLine &line) const
    {
        if (functionalWrite_)
            functionalWrite_(addr, line);
    }

    /**
     * Close the run: finalizes a mid-flight measured window and
     * computes the stitched estimate over @p totalWork work units.
     * Idempotent per run; the report is then stable.
     */
    void finishRun(std::uint64_t totalWork, Tick now,
                   std::uint64_t workDone);

    const SamplingReport &report() const { return report_; }

    /** @{ Live counters (exposed via SamplingStats). */
    std::uint64_t detailedUnits() const { return detailed_; }
    std::uint64_t fastForwardUnits() const { return fastForwarded_; }
    std::uint64_t windowsClosed() const { return windows_; }
    /** @} */

  private:
    void closeWindow(std::uint64_t workDone, Tick now);
    void scheduleNextWindow();

    SamplingConfig cfg_;
    Rng rng_;
    Phase phase_ = Phase::warmup;
    /** Misses decided so far. */
    std::uint64_t missIndex_ = 0;
    /** Miss index at which the current/next window starts. */
    std::uint64_t nextWindowStart_ = 0;
    /** Misses into the current detailed window. */
    std::uint64_t unitsIntoWindow_ = 0;
    /** Base of the period the *next* window will be drawn in. */
    std::uint64_t nextPeriodBase_ = 0;

    std::uint64_t detailed_ = 0;
    std::uint64_t fastForwarded_ = 0;

    /** Measured-window edge capture. */
    std::uint64_t windowStartWork_ = 0;
    Tick windowStartTick_ = 0;
    bool windowOpen_ = false;

    /** Welford accumulation over per-window time-per-work. */
    std::uint64_t windows_ = 0;
    double obsMean_ = 0;
    double obsM2_ = 0;

    MemoryTimingEstimate estimate_;
    FunctionalWrite functionalWrite_;
    SamplingReport report_;
    bool finished_ = false;
};

/**
 * Read-on-demand stats for one controller, a "sampling" group in
 * the EventCoreStats idiom — so every --stats-json capture of a
 * sampled system carries the sampler's trajectory.
 */
class SamplingStats : public stats::StatGroup
{
  public:
    SamplingStats(stats::StatGroup *parent,
                  const SamplingController &ctl)
        : stats::StatGroup("sampling", parent),
          enabled_(this, "enabled", "1 when sampled mode is on",
                   [&ctl] {
                       return ctl.config().enabled ? 1.0 : 0.0;
                   }),
          warmupUnits_(this, "warmupUnits",
                       "detailed unmeasured misses per window",
                       [&ctl] {
                           return double(ctl.config().warmupUnits);
                       }),
          windowUnits_(this, "windowUnits",
                       "measured misses per window",
                       [&ctl] {
                           return double(ctl.config().windowUnits);
                       }),
          periodUnits_(this, "periodUnits",
                       "misses between window starts",
                       [&ctl] {
                           return double(ctl.config().periodUnits);
                       }),
          windows_(this, "windows", "measured windows closed",
                   [&ctl] { return double(ctl.windowsClosed()); }),
          detailed_(this, "detailedMisses",
                    "misses run through the real channel",
                    [&ctl] { return double(ctl.detailedUnits()); }),
          fastForwarded_(this, "fastForwardMisses",
                         "misses charged from the estimate",
                         [&ctl] {
                             return double(ctl.fastForwardUnits());
                         }),
          estimateNs_(this, "estimatePerMissNs",
                      "calibrated per-miss latency estimate",
                      [&ctl] {
                          return ticksToNs(ctl.chargedLatency());
                      }),
          estRuntimeSec_(this, "estimatedRuntimeSec",
                         "stitched whole-run runtime estimate",
                         [&ctl] {
                             return ctl.report().estimatedRuntimeSec();
                         }),
          ciHalfSec_(this, "ciHalfWidthSec",
                     "95% CI half-width on the runtime estimate",
                     [&ctl] {
                         return ticksToSeconds(
                             Tick(ctl.report().ciHalfWidthTicks));
                     })
    {}

  private:
    stats::Value enabled_;
    stats::Value warmupUnits_;
    stats::Value windowUnits_;
    stats::Value periodUnits_;
    stats::Value windows_;
    stats::Value detailed_;
    stats::Value fastForwarded_;
    stats::Value estimateNs_;
    stats::Value estRuntimeSec_;
    stats::Value ciHalfSec_;
};

} // namespace contutto::sim

#endif // CONTUTTO_SIM_SAMPLING_HH
