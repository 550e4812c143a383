/**
 * @file
 * Block devices whose service time does not depend on what came
 * before: the SAS SSD of Table 4 and the PCIe-attached stores of
 * Figures 9 and 10.
 *
 * Each operation pays a per-command overhead, a flat media latency
 * (read or write) and the payload transfer at the interface rate;
 * up to `parallelism` operations are in service at once. For a PCIe
 * device the overhead is the transaction protocol — doorbell MMIO,
 * command fetch DMA, completion interrupt — a floor of microseconds
 * even with NVMe, and exactly what the DMI attach point avoids,
 * which is the paper's core storage claim. For the SAS SSD it is
 * the SAS link and controller. MRAM-on-PCIe numbers are the
 * vendor's (the paper took them from the datasheet as well).
 */

#ifndef CONTUTTO_STORAGE_FLAT_LATENCY_HH
#define CONTUTTO_STORAGE_FLAT_LATENCY_HH

#include <deque>

#include "storage/block_device.hh"

namespace contutto::storage
{

/** A block device with flat latencies and internal parallelism. */
class FlatLatencyDevice : public BlockDevice
{
  public:
    struct Params
    {
        std::uint64_t capacityBlocks =
            256ull * 1024 * 1024 * 1024 / blockSize;
        /** Media access time. */
        Tick readLatency = microseconds(10);
        Tick writeLatency = microseconds(20);
        /** Payload transfer rate, bytes/second (PCIe Gen3 x4 DMA
         *  ~ 3.2 GB/s). */
        double transferRate = 3.2e9;
        /** Per-command cost on top of the media (PCIe: doorbell +
         *  SQ fetch + CQ write + MSI-X + host ISR). */
        Tick commandOverhead = microseconds(5);
        /** Concurrent operations (queue pairs x channels). */
        unsigned parallelism = 16;
        std::string description = "PCIe device";
    };

    /** @{ The paper's comparison configurations. */
    /** The 400 GB enterprise SAS SSD of Table 4. */
    static Params sasSsd();
    /** NVRAM: flash-backed DRAM behind an NVMe controller. */
    static Params nvramOnPcie();
    /** NVMe NAND flash on x4 PCIe. */
    static Params flashOnPcie();
    /** The vendor's MRAM PCIe card (datasheet numbers). */
    static Params mramOnPcie();
    /** @} */

    FlatLatencyDevice(const std::string &name, EventQueue &eq,
                      const ClockDomain &domain,
                      stats::StatGroup *parent, const Params &params);

    void submit(BlockRequest req) override;
    std::string describe() const override
    {
        return params_.description;
    }

    const Params &params() const { return params_; }

  private:
    void startOne(BlockRequest req);

    Params params_;
    unsigned inFlight_ = 0;
    std::deque<BlockRequest> queue_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_FLAT_LATENCY_HH
