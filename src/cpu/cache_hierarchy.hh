/**
 * @file
 * The processor-side cache hierarchy (POWER8-ish L1D/L2/L3).
 *
 * A tag-only three-level filter in front of the memory channel:
 * hits cost their level's latency, misses fill all levels, and
 * dirty L3 victims generate writebacks that really travel the
 * channel. Used by the trace replayer so raw reference traces (not
 * pre-filtered miss traces) can run against the simulated memory
 * system — working-set effects then emerge from the hierarchy.
 */

#ifndef CONTUTTO_CPU_CACHE_HIERARCHY_HH
#define CONTUTTO_CPU_CACHE_HIERARCHY_HH

#include <optional>

#include "mem/cache_model.hh"
#include "sim/sim_object.hh"

namespace contutto::cpu
{

/** One level's geometry and hit cost. */
struct CacheLevelParams
{
    std::uint64_t capacity = 64 * KiB;
    unsigned ways = 8;
    Tick hitLatency = nanoseconds(1);
};

/** The three-level filter. */
class CacheHierarchy : public stats::StatGroup
{
  public:
    struct Params
    {
        /** POWER8-class per-core geometry. */
        CacheLevelParams l1{64 * KiB, 8, picoseconds(750)};
        CacheLevelParams l2{512 * KiB, 8, nanoseconds(3)};
        CacheLevelParams l3{8 * MiB, 8, nanoseconds(9)};
    };

    CacheHierarchy(const std::string &name, stats::StatGroup *parent,
                   const Params &params);

    /** Where an access was served. */
    enum class Level
    {
        l1,
        l2,
        l3,
        memory,
    };

    /** Outcome of one reference. */
    struct Access
    {
        Level servedBy = Level::memory;
        /** On-chip latency (excludes the memory trip on a miss). */
        Tick delay = 0;
        /** A dirty L3 victim that must be written to memory. */
        std::optional<Addr> writeback;
    };

    /** Filter one reference; updates all levels. */
    Access access(Addr addr, bool is_write);

    /** Drop all cached state. */
    void invalidateAll();

    double l1HitRate() const { return l1_.hitRate(); }

    /** Fraction of references that went to memory. */
    double
    memoryRate() const
    {
        double total = stats_.references.value();
        return total > 0 ? stats_.memoryAccesses.value() / total
                         : 0.0;
    }

    struct HierarchyStats
    {
        stats::Scalar references;
        stats::Scalar l1Hits;
        stats::Scalar l2Hits;
        stats::Scalar l3Hits;
        stats::Scalar memoryAccesses;
        stats::Scalar writebacks;
    };

    const HierarchyStats &hierarchyStats() const { return stats_; }

  private:
    Params params_;
    mem::CacheModel l1_;
    mem::CacheModel l2_;
    mem::CacheModel l3_;
    HierarchyStats stats_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_CACHE_HIERARCHY_HH
