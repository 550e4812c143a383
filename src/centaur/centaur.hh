/**
 * @file
 * The Centaur memory-buffer ASIC model: the baseline ConTutto
 * replaces.
 *
 * Centaur implements the DMI protocol handling, command processing,
 * a 16 MB eDRAM cache with prefetching, and four DDR ports
 * (paper §2.1). It is the latency/throughput baseline for Tables 2
 * and 3 and Figures 6 and 7. The paper varies "different
 * performance-related knobs available in it" to sweep memory latency
 * (Table 2); Config models those knobs: cache enable, prefetch
 * enable, and a conservative-mode pipeline penalty.
 */

#ifndef CONTUTTO_CENTAUR_CENTAUR_HH
#define CONTUTTO_CENTAUR_CENTAUR_HH

#include <array>
#include <deque>
#include <unordered_map>
#include <vector>

#include "dmi/codec.hh"
#include "dmi/link.hh"
#include "firmware/error_log.hh"
#include "mem/cache_model.hh"
#include "mem/ddr3_controller.hh"
#include "mem/line_interleave.hh"

namespace contutto::centaur
{

/** The Centaur ASIC. */
class CentaurModel : public SimObject, public ckpt::Checkpointable
{
  public:
    struct Config
    {
        std::string configName = "optimized";
        bool cacheEnabled = true;
        bool prefetchEnabled = true;
        /** Command-processing pipeline latency (ASIC, 2 GHz). */
        Tick pipelineLatency = nanoseconds(8);
        /** Cache hit service latency (eDRAM). */
        Tick cacheHitLatency = nanoseconds(10);
        /**
         * Conservative-mode penalty: the Table 2 performance knobs
         * (serialized handshakes, speculative access off, ...).
         */
        Tick extraLatency = 0;
        std::uint64_t cacheCapacity = 16 * MiB;
        unsigned cacheWays = 8;
        /**
         * Per-command watchdog for DDR accesses (0 disables): lost
         * completions are re-issued with exponential backoff, then
         * the tag is reclaimed so the host never hangs.
         */
        Tick cmdTimeout = microseconds(20);
        /** Re-issues before a stuck tag is reclaimed. */
        unsigned maxCmdRetries = 3;
    };

    /** @{ The Table 2 knob settings (latency-calibrated presets). */
    static Config optimized();     ///< cfg 1: 79 ns class.
    static Config balanced();      ///< cfg 2: 83 ns class.
    static Config conservative();  ///< cfg 3: 116 ns class.
    static Config slowest();       ///< cfg 4: 249 ns class.
    /** @} */

    /** Cache and auxiliary functions disabled, handshakes padded to
     *  mirror the feature set ConTutto implements (293 ns class). */
    /** The Table 3 system's latency-optimized Centaur (97 ns). */
    static Config table3Baseline();

    static Config contuttoMatched();

    CentaurModel(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 const Config &config, dmi::BufferLink &link,
                 std::vector<mem::Ddr3Controller *> ports);

    ~CentaurModel() override;

    const Config &config() const { return config_; }

    /** Cache hit rate so far (reads+writes). */
    double cacheHitRate() const { return cache_.hitRate(); }

    /** True when no command is in flight. */
    bool quiescent() const { return activeCommands_ == 0; }

    /** Route RAS events (reclaimed tags, poison) to the FSP log. */
    void attachErrorLog(firmware::ErrorLog *log) { errorLog_ = log; }

    /**
     * Fault injection: swallow the next @p n DDR completions as if
     * the controller lost them, exercising the tag watchdogs.
     */
    void dropNextCompletions(unsigned n) { stallBudget_ += n; }

    struct CentaurStats
    {
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar rmws;
        stats::Scalar flushes;
        stats::Scalar cacheHits;
        stats::Scalar cacheMisses;
        stats::Scalar prefetches;
        stats::Scalar unsupportedCommands;
        stats::Scalar cmdTimeouts;        ///< Watchdog expirations.
        stats::Scalar cmdRetries;         ///< DDR accesses re-issued.
        stats::Scalar tagsReclaimed;      ///< Tags freed by force.
        stats::Scalar droppedCompletions; ///< Injected stalls consumed.
        stats::Scalar poisonedReads;      ///< Reads returned poisoned.
    };

    const CentaurStats &centaurStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the eDRAM cache tags, the issue
     *  sequence counter, the stall budget and per-tag generation
     *  guards. Only legal while quiescent with nothing deferred. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    /** Watchdog state for one in-flight DDR access. */
    struct TagOp
    {
        bool active = false;
        std::uint32_t seq = 0; ///< Issue generation (staleness gate).
        unsigned retries = 0;
        dmi::MemCommand cmd;   ///< Retained for re-issue.
    };

    /** A tag's DDR watchdog: armed at each issue, descheduled when
     *  the access completes. */
    struct Watchdog final : Event
    {
        CentaurModel *centaur = nullptr;
        std::uint8_t tag = 0;
        void process() override { centaur->tagTimeout(tag); }
        const char *name() const override { return "centaur.watchdog"; }
    };

    /** One flush waiting for older writes to drain to DDR. */
    struct FlushOp
    {
        std::uint8_t tag = 0;
        TraceId traceId = noTraceId;
        /** Tags of the write-class commands it must outwait. */
        std::vector<std::uint8_t> waitingOn;
    };

    void frameArrived(const dmi::DownFrame &frame);
    void execute(const dmi::MemCommand &cmd, bool redispatch = false);
    void retryDeferred(Addr addr);
    void serveRead(const dmi::MemCommand &cmd);
    void serveWrite(const dmi::MemCommand &cmd);
    void serveFlush(const dmi::MemCommand &cmd);
    void noteWriteDrained(std::uint8_t tag);
    void issueReadAccess(std::uint8_t tag);
    void issueWriteAccess(std::uint8_t tag);
    void finishRead(const dmi::MemCommand &cmd, bool poisoned);
    void sendDone(std::uint8_t tag, TraceId traceId);
    std::uint32_t armTagOp(std::uint8_t tag);
    /** The access on @p tag is over: clear it, stop its watchdog. */
    void retireTagOp(std::uint8_t tag);
    void tagTimeout(std::uint8_t tag);
    void reclaimTag(std::uint8_t tag);
    bool consumeStall();
    void releaseWrite(Addr line);
    mem::Ddr3Controller &portFor(Addr addr);
    Addr localAddr(Addr addr) const
    {
        return interleave_.localAddr(addr);
    }

    Config config_;
    dmi::BufferLink &link_;
    std::vector<mem::Ddr3Controller *> ports_;
    mem::LineInterleave interleave_;
    dmi::CommandAssembler assembler_;
    mem::CacheModel cache_;
    unsigned activeCommands_ = 0;
    /** Outstanding write counts per line, for read-after-write
     *  ordering (reads must not pass writes via the cache path). */
    std::unordered_map<Addr, unsigned> pendingWrites_;
    std::deque<dmi::MemCommand> deferred_;
    std::vector<FlushOp> pendingFlushes_;
    std::array<TagOp, dmi::numTags> tagOps_{};
    std::array<Watchdog, dmi::numTags> watchdogs_{};
    std::uint32_t seqCounter_ = 0;
    unsigned stallBudget_ = 0;
    firmware::ErrorLog *errorLog_ = nullptr;
    CentaurStats stats_;
};

} // namespace contutto::centaur

#endif // CONTUTTO_CENTAUR_CENTAUR_HH
