#include "storage/sas_devices.hh"

#include <cmath>

namespace contutto::storage
{

HddDevice::HddDevice(const std::string &name, EventQueue &eq,
                     const ClockDomain &domain,
                     stats::StatGroup *parent, const Params &params)
    : BlockDevice(name, eq, domain, parent, params.capacityBlocks),
      params_(params),
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
    if (distance <= params_.sequentialWindow) {
        seek = 0;
    } else {
        double frac =
            double(distance) / double(capacityBlocks_);
        seek = params_.trackToTrackSeek
            + Tick(frac * 2.0 * double(params_.avgSeek));
        if (seek > 2 * params_.avgSeek)
            seek = 2 * params_.avgSeek;
    }

    // Rotational latency: half a revolution on average after a
    // seek, none for sequential continuation.
    Tick rotation = 0;
    if (seek > 0) {
        double rev_s = 60.0 / params_.rpm;
        rotation = Tick(rev_s / 2.0 * 1e12);
    }

    double bytes = double(req.blocks) * blockSize;
    Tick transfer = Tick(bytes / params_.mediaRate * 1e12);
    return params_.commandOverhead + seek + rotation + transfer;
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
    if (service > params_.commandOverhead
                      + Tick(double(current_.blocks) * blockSize
                             / params_.mediaRate * 1e12))
        ++seeks_;
    else
        ++sequentialHits_;
    headLba_ = current_.lba + current_.blocks;
    eventq().schedule(&doneEvent_, curTick() + service);
}

} // namespace contutto::storage
