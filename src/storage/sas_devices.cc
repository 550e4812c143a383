#include "storage/sas_devices.hh"

#include <cmath>

namespace contutto::storage
{

namespace
{

constexpr std::uint64_t diskBlocks = 1100ull * 1000 * 1000 * 1000
    / blockSize; // 1.1 TB
constexpr double rpm = 7200;
constexpr Tick avgSeek = microseconds(12000);
constexpr Tick trackToTrackSeek = microseconds(700);
/** Media transfer rate, bytes/second. */
constexpr double mediaRate = 150e6;
/** SAS link + controller overhead per command. */
constexpr Tick commandOverhead = microseconds(60);
/** LBA distance still counted as "sequential". */
constexpr std::uint64_t sequentialWindow = 256;

} // namespace

HddDevice::HddDevice(const std::string &name, EventQueue &eq,
                     const ClockDomain &domain,
                     stats::StatGroup *parent)
    : BlockDevice(name, eq, domain, parent, diskBlocks),
      doneEvent_([this] {
          complete(current_);
          busy_ = false;
          startNext();
      }, name + ".done"),
      seeks_(this, "seeks", "long seeks performed"),
      sequentialHits_(this, "sequentialHits",
                      "requests serviced without a long seek")
{}

HddDevice::~HddDevice()
{
    if (doneEvent_.scheduled())
        eventq().deschedule(&doneEvent_);
}

Tick
HddDevice::serviceTime(const BlockRequest &req) const
{
    // Seek: none if the head is within the sequential window,
    // otherwise scaled by distance up to the average seek.
    std::uint64_t distance = req.lba > headLba_
        ? req.lba - headLba_
        : headLba_ - req.lba;
    Tick seek;
    if (distance <= sequentialWindow) {
        seek = 0;
    } else {
        double frac =
            double(distance) / double(capacityBlocks_);
        seek = trackToTrackSeek
            + Tick(frac * 2.0 * double(avgSeek));
        if (seek > 2 * avgSeek)
            seek = 2 * avgSeek;
    }

    // Rotational latency: half a revolution on average after a
    // seek, none for sequential continuation.
    Tick rotation = 0;
    if (seek > 0) {
        double rev_s = 60.0 / rpm;
        rotation = Tick(rev_s / 2.0 * 1e12);
    }

    double bytes = double(req.blocks) * blockSize;
    Tick transfer = Tick(bytes / mediaRate * 1e12);
    return commandOverhead + seek + rotation + transfer;
}

void
HddDevice::submit(BlockRequest req)
{
    req.issuedAt = curTick();
    queue_.push_back(std::move(req));
    if (!busy_)
        startNext();
}

void
HddDevice::startNext()
{
    if (queue_.empty())
        return;
    busy_ = true;
    current_ = std::move(queue_.front());
    queue_.pop_front();
    Tick service = serviceTime(current_);
    if (service > commandOverhead
                      + Tick(double(current_.blocks) * blockSize
                             / mediaRate * 1e12))
        ++seeks_;
    else
        ++sequentialHits_;
    headLba_ = current_.lba + current_.blocks;
    eventq().schedule(&doneEvent_, curTick() + service);
}

} // namespace contutto::storage
