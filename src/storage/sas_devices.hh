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
    HddDevice(const std::string &name, EventQueue &eq,
              const ClockDomain &domain, stats::StatGroup *parent);

    ~HddDevice() override;

    void submit(BlockRequest req) override;
    std::string describe() const override
    {
        return "Hard Disk Drive (SAS)";
    }

  private:
    void startNext();
    Tick serviceTime(const BlockRequest &req) const;

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
