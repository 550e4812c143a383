/**
 * @file
 * A GPFS-style write-aggregating cache (paper §4.2, Table 4).
 *
 * Small random application writes land in a fast persistent write
 * cache (the STT-MRAM behind ConTutto in the paper's setup) and are
 * acknowledged immediately; a background destager aggregates dirty
 * blocks into large sequential writes to the hard disk, avoiding the
 * per-write head reposition that limits the HDD to double-digit
 * IOPS. With no cache device, writes go straight to the backing
 * store.
 */

#ifndef CONTUTTO_STORAGE_GPFS_HH
#define CONTUTTO_STORAGE_GPFS_HH

#include <functional>

#include "storage/block_device.hh"

namespace contutto::storage
{

/** The filesystem write path. */
class GpfsWriteCache : public SimObject
{
  public:
    /**
     * @param cache fast persistent store, or null for direct mode.
     * @param backing the hard disk.
     */
    GpfsWriteCache(const std::string &name, EventQueue &eq,
                   const ClockDomain &domain,
                   stats::StatGroup *parent, BlockDevice *cache, BlockDevice &backing);

    /** One small random application write. */
    void appWrite(std::uint64_t lba, std::function<void()> done);

    struct GpfsStats
    {
        stats::Scalar appWrites;
        stats::Scalar destages;
        stats::Scalar stalls;
        stats::Scalar dirtyPeak; ///< High-water mark of dirty blocks.
        stats::Distribution appWriteLatency; ///< us
    };

    const GpfsStats &gpfsStats() const { return stats_; }

  private:
    void maybeDestage();

    BlockDevice *cache_;
    BlockDevice &backing_;
    unsigned dirtyBlocks_ = 0;
    bool destaging_ = false;
    std::uint64_t cacheCursor_ = 0;
    std::uint64_t backingCursor_ = 0;
    std::vector<std::function<void()>> stalledWrites_;
    GpfsStats stats_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_GPFS_HH
