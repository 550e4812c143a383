#include "storage/flat_latency.hh"

namespace contutto::storage
{

FlatLatencyDevice::Params
FlatLatencyDevice::sasSsd()
{
    Params p;
    p.capacityBlocks = 400ull * 1000 * 1000 * 1000 / blockSize;
    p.readLatency = microseconds(95);
    // Writes land in the drive's capacitor-backed cache.
    p.writeLatency = microseconds(43);
    // SAS link + controller, and the SAS 6G interface rate.
    p.commandOverhead = microseconds(10);
    p.transferRate = 550e6;
    p.parallelism = 8;
    p.description = "SSD (SAS)";
    return p;
}

FlatLatencyDevice::Params
FlatLatencyDevice::nvramOnPcie()
{
    Params p;
    p.readLatency = microseconds(13);
    p.writeLatency = microseconds(23);
    p.commandOverhead = microseconds(5);
    p.transferRate = 3.2e9;
    p.description = "NVRAM (PCIe)";
    return p;
}

FlatLatencyDevice::Params
FlatLatencyDevice::flashOnPcie()
{
    Params p;
    p.readLatency = microseconds(78);
    p.writeLatency = microseconds(48);
    p.commandOverhead = microseconds(5);
    p.transferRate = 3.2e9;
    p.description = "Flash (x4 PCIe)";
    return p;
}

FlatLatencyDevice::Params
FlatLatencyDevice::mramOnPcie()
{
    Params p;
    p.capacityBlocks = 256ull * 1024 * 1024 / blockSize;
    p.readLatency = microseconds(2);
    p.writeLatency = microseconds(4) + nanoseconds(800);
    // The MRAM vendor card uses a lean polled driver.
    p.commandOverhead = microseconds(4);
    p.transferRate = 3.2e9;
    p.description = "STT-MRAM (PCIe)";
    return p;
}

FlatLatencyDevice::FlatLatencyDevice(const std::string &name,
                                     EventQueue &eq,
                                     const ClockDomain &domain,
                                     stats::StatGroup *parent,
                                     const Params &params)
    : BlockDevice(name, eq, domain, parent, params.capacityBlocks),
      params_(params)
{}

void
FlatLatencyDevice::submit(BlockRequest req)
{
    req.issuedAt = curTick();
    if (inFlight_ >= params_.parallelism) {
        queue_.push_back(std::move(req));
        return;
    }
    startOne(std::move(req));
}

void
FlatLatencyDevice::startOne(BlockRequest req)
{
    ++inFlight_;
    Tick media = req.isWrite ? params_.writeLatency
                             : params_.readLatency;
    double bytes = double(req.blocks) * blockSize;
    Tick transfer = Tick(bytes / params_.transferRate * 1e12);
    Tick service = params_.commandOverhead + media + transfer;
    BlockRequest r = std::move(req);
    OneShotEvent::schedule(
        eventq(), curTick() + service, [this, r]() mutable {
            complete(r);
            --inFlight_;
            if (!queue_.empty()) {
                BlockRequest next = std::move(queue_.front());
                queue_.pop_front();
                startOne(std::move(next));
            }
        });
}

} // namespace contutto::storage
