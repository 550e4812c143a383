/**
 * @file
 * The SAS-attached rotating disk.
 *
 * Table 4's comparison points: a 1.1 TB SAS HDD (~75 IOPS on small
 * random writes) and a 400 GB SAS SSD (~15K IOPS). The SSD's
 * service time does not depend on head position, so it is a preset
 * of the flat-latency device (FlatLatencyDevice::sasSsd()).
 */

#ifndef CONTUTTO_STORAGE_SAS_DEVICES_HH
#define CONTUTTO_STORAGE_SAS_DEVICES_HH

#include <deque>

#include "storage/block_device.hh"

namespace contutto::storage
{

/** A 7.2K RPM SAS hard disk with a seek/rotate/transfer model. */
class HddDevice : public BlockDevice
{
  public:
    struct Params
    {
        std::uint64_t capacityBlocks = 1100ull * 1000 * 1000 * 1000
            / blockSize; // 1.1 TB
        double rpm = 7200;
        Tick avgSeek = microseconds(12000);
        Tick trackToTrackSeek = microseconds(700);
        /** Media transfer rate, bytes/second. */
        double mediaRate = 150e6;
        /** SAS link + controller overhead per command. */
        Tick commandOverhead = microseconds(60);
        /** LBA distance still counted as "sequential". */
        std::uint64_t sequentialWindow = 256;
    };

    HddDevice(const std::string &name, EventQueue &eq,
              const ClockDomain &domain, stats::StatGroup *parent,
              const Params &params);

    ~HddDevice() override;

    void submit(BlockRequest req) override;
    std::string describe() const override
    {
        return "Hard Disk Drive (SAS)";
    }

  private:
    void startNext();
    Tick serviceTime(const BlockRequest &req) const;

    Params params_;
    std::deque<BlockRequest> queue_;
    bool busy_ = false;
    std::uint64_t headLba_ = 0;
    EventFunctionWrapper doneEvent_;
    BlockRequest current_;
    stats::Scalar seeks_;
    stats::Scalar sequentialHits_;
};

} // namespace contutto::storage

#endif // CONTUTTO_STORAGE_SAS_DEVICES_HH
