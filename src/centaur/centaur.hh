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
#include <vector>

#include "dmi/codec.hh"
#include "dmi/command_tags.hh"
#include "dmi/link.hh"
#include "mem/cache_model.hh"
#include "mem/ddr3_controller.hh"
#include "mem/line_interleave.hh"

namespace contutto::centaur
{

/** The Centaur ASIC. */
class CentaurModel : public SimObject,
                     public ckpt::Checkpointable,
                     private dmi::CommandTags::Client
{
  public:
    struct Config
    {
        std::string configName = "optimized";
        bool cacheEnabled = true;
        bool prefetchEnabled = true;
        /**
         * Conservative-mode penalty: the Table 2 performance knobs
         * (serialized handshakes, speculative access off, ...).
         */
        Tick extraLatency = 0;
    };

    /** @{ The Table 2 knob settings (latency-calibrated presets). */
    static Config optimized();     ///< cfg 1: 79 ns class.
    static Config balanced();      ///< cfg 2: 83 ns class.
    static Config conservative();  ///< cfg 3: 116 ns class.
    static Config slowest();       ///< cfg 4: 249 ns class.
    /** @} */

    /** The four Table 2 knob settings, cfg 1 to cfg 4. */
    static const std::array<Config, 4> &table2Knobs();

    /** The Table 3 system's latency-optimized Centaur (97 ns). */
    static Config table3Baseline();

    /** Cache and auxiliary functions disabled, handshakes padded to
     *  mirror the feature set ConTutto implements (293 ns class). */
    static Config contuttoMatched();

    CentaurModel(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 const Config &config, dmi::BufferLink &link,
                 std::vector<mem::Ddr3Controller *> ports);

    const Config &config() const { return config_; }

    /** True when no command is in flight. */
    bool quiescent() const { return activeCommands_ == 0; }

    /** Route RAS events (reclaimed tags, poison) to the FSP log. */
    void attachErrorLog(firmware::ErrorLog *log) { tags_.attachErrorLog(log); }

    /**
     * Fault injection: swallow the next @p n DDR completions as if
     * the controller lost them, exercising the tag watchdogs.
     */
    void stallNextCompletions(unsigned n) { tags_.stallNextCompletions(n); }

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

    /** @{ ckpt::Checkpointable: the eDRAM cache tags, then the tag
     *  core's tail (issue-sequence counter, stall budget, per-tag
     *  generation guards). Only legal while quiescent. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    void frameArrived(const dmi::DownFrame &frame);
    void dispatch(const dmi::MemCommand &cmd);
    void serveRead(std::uint8_t tag);
    void serveWrite(std::uint8_t tag);
    void issueReadAccess(std::uint8_t tag);
    void issueWriteAccess(std::uint8_t tag);
    void finishRead(std::uint8_t tag, bool poisoned);
    /** Answer the host with @p tag's done and retire the tag. */
    void sendDone(std::uint8_t tag);
    mem::Ddr3Controller &portFor(Addr addr);
    Addr localAddr(Addr addr) const
    {
        return interleave_.localAddr(addr);
    }

    /** @{ dmi::CommandTags::Client */
    void execute(const dmi::MemCommand &cmd, unsigned) override;
    void reissueAccess(unsigned tag) override;
    void reclaimTag(unsigned tag) override;
    void fenceDone(unsigned tag) override { sendDone(std::uint8_t(tag)); }
    /** @} */

    Config config_;
    dmi::BufferLink &link_;
    std::vector<mem::Ddr3Controller *> ports_;
    mem::LineInterleave interleave_;
    dmi::CommandAssembler assembler_;
    mem::CacheModel cache_;
    unsigned activeCommands_ = 0;
    /** The command each tag is executing, kept for re-issue. */
    std::array<dmi::MemCommand, dmi::numTags> cmds_{};
    CentaurStats stats_;
    dmi::CommandTags tags_;
};

} // namespace contutto::centaur

#endif // CONTUTTO_CENTAUR_CENTAUR_HH
