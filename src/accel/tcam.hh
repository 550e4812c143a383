/**
 * @file
 * The ternary CAM block (paper §3.2).
 *
 * ConTutto carries a TCAM "to allow for future experimentation ...
 * could be potentially used to contain routing tables or tag entries
 * on a data cache or for the acceleration of other applications
 * requiring look-up". This models a classic ternary CAM: entries
 * hold a value and a care-mask; a lookup matches a key against all
 * entries in parallel and returns the lowest-index (highest
 * priority) hit. A bus-attachable front end exposes it at an MMIO
 * window so host software can program entries and issue lookups
 * with plain loads and stores, paying one memory-channel round trip
 * per lookup instead of a pointer walk per routing-table level.
 */

#ifndef CONTUTTO_ACCEL_TCAM_HH
#define CONTUTTO_ACCEL_TCAM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bus/avalon.hh"
#include "sim/sim_object.hh"

namespace contutto::accel
{

/** The CAM array itself. */
class Tcam
{
  public:
    struct Entry
    {
        bool valid = false;
        std::uint64_t value = 0;
        /** Bits set in mask participate in matching ("care"). */
        std::uint64_t mask = ~std::uint64_t(0);
        /** Payload returned on a hit (e.g. a next-hop index). */
        std::uint64_t result = 0;
    };

    explicit Tcam(unsigned entries = 1024) : entries_(entries) {}

    unsigned size() const { return unsigned(entries_.size()); }

    void
    write(unsigned index, const Entry &entry)
    {
        entries_.at(index) = entry;
    }

    void invalidate(unsigned index)
    {
        entries_.at(index).valid = false;
    }

    const Entry &entry(unsigned index) const
    {
        return entries_.at(index);
    }

    /** Hit description. */
    struct Hit
    {
        unsigned index;
        std::uint64_t result;
    };

    /**
     * Parallel ternary match; lowest index wins (entry priority).
     */
    std::optional<Hit>
    lookup(std::uint64_t key) const
    {
        for (unsigned i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            if (e.valid && ((key ^ e.value) & e.mask) == 0)
                return Hit{i, e.result};
        }
        return std::nullopt;
    }

  private:
    std::vector<Entry> entries_;
};

/**
 * MMIO front end: a 3-line window on the card's Avalon bus.
 *
 * Line 0 (command): [0]=u64 opcode (1=writeEntry, 2=invalidate,
 *   3=lookup), [8]=u64 index, [16]=u64 value, [24]=u64 mask,
 *   [32]=u64 result payload, [40]=u64 lookup key.
 * Line 1 (response): [0]=u64 hitValid, [8]=u64 hitIndex,
 *   [16]=u64 hitResult, [24]=u64 lookupsDone.
 * Writes to line 0 execute the command after the CAM's match
 * latency; reads of line 1 return the latest response.
 */
class TcamMmio : public SimObject, public bus::AvalonSlave
{
  public:
    TcamMmio(const std::string &name, EventQueue &eq,
             const ClockDomain &domain, stats::StatGroup *parent,
             bus::AvalonBus &bus, Addr mmio_base);

    void access(const mem::MemRequestPtr &req) override;
    std::string slaveName() const override { return name(); }

    Addr mmioBase() const { return mmioBase_; }
    Tcam &cam() { return cam_; }

    /** @{ Command opcodes. */
    static constexpr std::uint64_t opWriteEntry = 1;
    static constexpr std::uint64_t opInvalidate = 2;
    static constexpr std::uint64_t opLookup = 3;
    /** @} */

    struct TcamStats
    {
        stats::Scalar lookups;
        stats::Scalar hits;
        stats::Scalar updates;
    };

    const TcamStats &tcamStats() const { return stats_; }

  private:
    void execute(const dmi::CacheLine &cmd);

    Addr mmioBase_;
    Tcam cam_;
    dmi::CacheLine response_{};
    std::uint64_t lookupsDone_ = 0;
    TcamStats stats_;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_TCAM_HH
