/**
 * @file
 * The NVDIMM-N on-module backup flash.
 *
 * A real NVDIMM-N streams its DRAM array into NAND on supercap
 * energy (paper §4.2(iii)). The stream is not atomic: the image is
 * written segment by segment, and a power edge or an exhausted
 * supercap mid-stream leaves a *partially saved* image. This model
 * makes that failure mode first-class: every segment carries a
 * generation tag and a checksum, so a restore can classify each
 * segment as clean (this save, intact), stale (an older complete
 * save), or torn (interrupted mid-program). NAND wear is tracked per
 * physical block, and blocks that fail to program are remapped to a
 * small spare pool the way a module controller would.
 */

#ifndef CONTUTTO_MEM_FLASH_MODEL_HH
#define CONTUTTO_MEM_FLASH_MODEL_HH

#include <cstdint>
#include <vector>

#include "mem/mem_image.hh"
#include "sim/logging.hh"

namespace contutto::mem
{

/** Classification of one flash segment at restore time. */
enum class SegmentState : std::uint8_t
{
    erased, ///< Never programmed.
    clean,  ///< Matches the asked-for generation, checksum good.
    stale,  ///< Intact, but from an older save generation.
    torn,   ///< Program interrupted: checksum mismatch.
};

const char *segmentStateName(SegmentState s);

/** Backup flash: segmented, checksummed, wear-levelled. */
class FlashModel : public ckpt::Checkpointable
{
  public:
    struct Params
    {
        /** Save/restore streaming granule. */
        std::uint64_t segmentSize = 1 * MiB;
        /** Spare physical blocks for bad-block remapping. */
        unsigned spareBlocks = 4;
        /** Program/erase cycles before a block wears out; 0 = off. */
        std::uint64_t eraseLimit = 0;
    };

    FlashModel(std::uint64_t capacity, const Params &params);

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t segmentSize() const { return params_.segmentSize; }
    unsigned numSegments() const { return numSegments_; }

    /**
     * Program segment @p seg from @p src (the DRAM image), tagging
     * it with @p generation. Returns false when the physical block
     * failed to program and no spare was left: the segment is then
     * recorded as torn.
     */
    bool programSegment(unsigned seg, const MemImage &src,
                        std::uint64_t generation);

    /**
     * Interrupt the program of segment @p seg: half the data lands,
     * the metadata records @p generation with a checksum that can
     * never match. Restore classifies the segment as torn.
     */
    void tearSegment(unsigned seg, const MemImage &src,
                     std::uint64_t generation);

    /** Copy segment @p seg back into @p dst (no validation). */
    void readSegment(unsigned seg, MemImage &dst) const;

    /** Classify segment @p seg against @p generation. */
    SegmentState validateSegment(unsigned seg,
                                 std::uint64_t generation) const;

    /** Mark the physical block behind @p seg bad: the next program
     *  is remapped to a spare (or fails when the pool is dry). */
    void markBad(unsigned seg);

    /** @{ Wear and remap accounting. */
    std::uint64_t programCycles(unsigned seg) const;
    std::uint64_t maxProgramCycles() const;
    unsigned remappedBlocks() const { return remapped_; }
    unsigned sparesLeft() const { return sparesLeft_; }
    std::uint64_t wornBlocks() const;
    /** @} */

    /** Checksum used for segment validation (FNV-1a over bytes). */
    static std::uint32_t checksum(const MemImage &img, Addr base,
                                  std::uint64_t len);

    /** @{ ckpt::Checkpointable: NAND cells, per-segment metadata,
     *  wear counters, and the spare-pool remap state. Geometry must
     *  match at restore. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    struct SegmentMeta
    {
        std::uint64_t generation = 0;
        std::uint32_t storedChecksum = 0;
        SegmentState programmed = SegmentState::erased;
        /** Physical block index (remapped when != logical). */
        unsigned physical = 0;
        bool bad = false;
    };

    /** Pick (or remap to) the physical block for a program. */
    bool resolvePhysical(unsigned seg);

    std::uint64_t capacity_;
    Params params_;
    unsigned numSegments_;
    MemImage cells_;
    std::vector<SegmentMeta> meta_;
    std::vector<std::uint64_t> wear_; ///< Per physical block.
    unsigned sparesLeft_;
    unsigned nextSpare_;
    unsigned remapped_ = 0;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_FLASH_MODEL_HH
