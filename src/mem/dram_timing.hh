/**
 * @file
 * DDR3 device timing parameters and the speed-grade preset in use.
 *
 * All values in ticks (ps), JEDEC-typical for the DIMM grade the
 * ConTutto card's two DDR3 DIMM connectors carry.
 */

#ifndef CONTUTTO_MEM_DRAM_TIMING_HH
#define CONTUTTO_MEM_DRAM_TIMING_HH

#include "sim/types.hh"

namespace contutto::mem
{

/** DDR3-style device timing set. */
struct DramTiming
{
    Tick tCK;    ///< Clock period.
    Tick tCL;    ///< CAS (read) latency.
    Tick tRCD;   ///< RAS-to-CAS delay (activate to column).
    Tick tRP;    ///< Row precharge time.
    Tick tRAS;   ///< Row active minimum.
    Tick tWR;    ///< Write recovery before precharge.
    Tick tRFC;   ///< Refresh cycle time.
    Tick tREFI;  ///< Average refresh interval.
    unsigned burstLength;  ///< Transfers per burst (BL8).
    unsigned busBytes;     ///< Data bus width in bytes.

    /** Bytes moved per burst. */
    std::uint64_t
    burstBytes() const
    {
        return std::uint64_t(burstLength) * busBytes;
    }

    /** Bus occupancy of one burst (double data rate). */
    Tick
    burstTime() const
    {
        return tCK * burstLength / 2;
    }
};

/** DDR3-1333 (tCK 1.5 ns, 9-9-9): the common ConTutto DIMM grade. */
constexpr DramTiming ddr3_1333()
{
    return DramTiming{1500, 9 * 1500, 9 * 1500, 9 * 1500, 24 * 1500,
                      10 * 1500, nanoseconds(160), microseconds(7)
                          + nanoseconds(800),
                      8, 8};
}

} // namespace contutto::mem

#endif // CONTUTTO_MEM_DRAM_TIMING_HH
