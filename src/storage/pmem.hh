/**
 * @file
 * The DMI-attached persistent-memory block device.
 *
 * This is the paper's storage headline: STT-MRAM or NVDIMM behind
 * ConTutto, exposed to software through a pmem-style kernel driver
 * (§4.2). A 4 KiB block operation becomes 32 cache-line commands on
 * the *simulated* DMI channel; writes are made persistent with the
 * ConTutto flush command the team added to MBS. The block latency
 * therefore emerges from the modelled link, buffer and media — the
 * same path the latency experiments calibrate.
 *
 * The write path carries real, self-describing payloads and honours
 * ADR-style persist-fence semantics: every cache line of a block is
 * stamped with (lba, sequence, line index) plus a deterministic
 * pattern, and the block's durability ledger advances only when the
 * flush — the fence — completes. A power cut before the fence may
 * tear the block (a mix of old- and new-sequence lines in media); a
 * cut after the fence may not. verifyBlock() re-reads the 32 lines
 * after recovery and classifies the image against the ledger, which
 * is how the crash campaign tells a legal pre-fence tear from a
 * genuine durability violation.
 *
 * The same driver without its fence is the raw slram block driver
 * (paper §4: experiments ran "either the pmem.io driver stack or raw
 * slram driver"; Params::forSlram()): block I/O straight onto the
 * memory region through a thinner software path, acknowledged as
 * soon as the line commands complete at the buffer. Faster, but such
 * a write may still sit in the buffer pipeline when power fails and
 * never advances the durability ledger; the pair makes the cost of
 * the persistence guarantee measurable.
 */

#ifndef CONTUTTO_STORAGE_PMEM_HH
#define CONTUTTO_STORAGE_PMEM_HH

#include <deque>
#include <unordered_map>

#include "cpu/system.hh"
#include "sim/checkpoint.hh"
#include "storage/block_device.hh"

namespace contutto::storage
{

/** What a post-recovery read of a block found in media. */
enum class BlockCheck : std::uint8_t
{
    unwritten, ///< No durable version was ever promised.
    intact,    ///< Exactly the durable sequence, every line.
    newer,     ///< A complete *later* write (fence never reached).
    torn,      ///< Mixed sequences / partial lines.
    stale,     ///< A complete *older* image than the durable one.
    lost,      ///< No recognizable payload at all (media wiped).
};

const char *blockCheckName(BlockCheck c);

/** A block device over the simulated memory channel. */
class PmemBlockDevice : public BlockDevice, public ckpt::Checkpointable
{
  public:
    struct Params
    {
        std::uint64_t capacityBlocks =
            256ull * 1024 * 1024 / blockSize;
        /** Driver CPU cost per 4 KiB op (pmem block path; the read
         *  side also pays the copy into the user buffer). */
        Tick driverReadCost = nanoseconds(2300);
        Tick driverWriteCost = nanoseconds(900);
        /** Issue a flush command after each write burst; without
         *  it no write is ever fenced. */
        bool flushOnWrite = true;

        /** Preset for STT-MRAM DIMMs behind ConTutto. */
        static Params forMram() { return Params{}; }

        /** Preset for NVDIMM-N (DRAM-speed media, leaner path). */
        static Params
        forNvdimm()
        {
            Params p;
            p.driverReadCost = nanoseconds(1950);
            p.driverWriteCost = nanoseconds(1400);
            return p;
        }

        /** Preset for the raw slram driver: no fence, and a thin
         *  driver cost per 4 KiB op in both directions. */
        static Params
        forSlram()
        {
            Params p;
            p.driverReadCost = nanoseconds(600);
            p.driverWriteCost = nanoseconds(600);
            p.flushOnWrite = false;
            return p;
        }
    };

    PmemBlockDevice(const std::string &name, cpu::Power8System &sys,
                    stats::StatGroup *parent, const Params &params);

    void submit(BlockRequest req) override;

    /**
     * Power-cut hook: fail the current and every queued request and
     * stop accepting new ones. The host port's own abortInFlight()
     * (a sibling cut hook) fails the line commands already on the
     * wire; their callbacks land here and finish the current
     * request as failed. Nothing unfenced is added to the ledger.
     */
    void powerCut();

    /** Power is back (after recovery): accept requests again. */
    void powerOn() { offline_ = false; }

    bool offline() const { return offline_; }

    /**
     * Post-recovery audit of one block: functionally re-read its 32
     * lines and classify the image against the durability ledger.
     * Never silently trusts media — a torn or stale image is
     * detected and counted, exactly what a pmem driver's checksum
     * layer would report to the filesystem.
     */
    BlockCheck verifyBlock(std::uint64_t lba);

    /** Last sequence the fence made durable for @p lba (0: none). */
    std::uint64_t
    durableSeq(std::uint64_t lba) const
    {
        auto it = durable_.find(lba);
        return it == durable_.end() ? 0 : it->second;
    }

    /** Last sequence a write *issued* for @p lba (0: none). */
    std::uint64_t
    issuedSeq(std::uint64_t lba) const
    {
        auto it = issued_.find(lba);
        return it == issued_.end() ? 0 : it->second;
    }

    std::string
    describe() const override
    {
        return std::string(mem::memTechName(sys_.dimm(0).tech()))
            + (params_.flushOnWrite ? " (DMI via ConTutto)"
                                    : " (DMI, raw slram)");
    }

    const Params &params() const { return params_; }

    struct PmemStats
    {
        stats::Scalar flushesIssued;
        stats::Scalar blocksFenced;  ///< Ledger advances.
        stats::Scalar verifies;      ///< verifyBlock() calls.
        stats::Scalar tornDetected;  ///< Mixed-sequence images.
        stats::Scalar staleDetected; ///< Complete-but-old images.
        stats::Scalar lostDetected;  ///< Unrecognizable images.
    };

    const PmemStats &pmemStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the monotonic write sequence, the
     *  offline flag and the durability/issue ledgers (in LBA order).
     *  Only legal while idle with an empty request queue. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    void startNext();
    void issueLines(const BlockRequest &req);
    void finishCurrent();
    void fillLine(std::uint8_t *line, std::uint64_t lba,
                  std::uint64_t seq, unsigned index) const;

    cpu::Power8System &sys_;
    Params params_;
    std::deque<BlockRequest> queue_;
    bool busy_ = false;
    bool offline_ = false;
    BlockRequest current_;
    /** Block-level trace id: one span over the whole 4 KiB op. */
    TraceId currentTraceId_ = noTraceId;
    std::uint64_t currentSeq_ = 0;  ///< Sequence of current write.
    bool currentFailed_ = false;
    unsigned linesOutstanding_ = 0;
    bool flushOutstanding_ = false;
    std::uint64_t writeSeq_ = 0;    ///< Monotonic write sequence.
    /** lba -> sequence the last completed fence made durable. */
    std::unordered_map<std::uint64_t, std::uint64_t> durable_;
    /** lba -> sequence of the last write issued (fenced or not). */
    std::unordered_map<std::uint64_t, std::uint64_t> issued_;
    PmemStats stats_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_PMEM_HH
