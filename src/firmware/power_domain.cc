#include "firmware/power_domain.hh"

#include <algorithm>

namespace contutto::firmware
{

namespace
{

/** First device-ready poll after the rails are up. */
constexpr Tick readyPollFirst = microseconds(1);
/** Poll backoff cap (NVDIMM restores take a while). */
constexpr Tick readyPollMax = milliseconds(1);
/** Give up waiting for devices after this long. */
constexpr Tick readyTimeout = seconds(30);

} // namespace

PowerDomain::PowerDomain(const std::string &name, EventQueue &eq,
                         const ClockDomain &domain,
                         stats::StatGroup *parent,
                         PowerSequencer &seq)
    : SimObject(name, eq, domain, parent), seq_(seq),
      startEvent_([this] { startRamp(); }, name + ".start"),
      pollEvent_([this] { pollReady(); }, name + ".poll"),
      stats_{{this, "cuts", "power cuts seen"},
             {this, "restores", "restores completed"},
             {this, "failedRestores",
              "restores failed (rail fault or ready timeout)"},
             {this, "brownouts", "input dips seen"},
             {this, "brownoutsRidden",
              "dips ridden through on holdup"},
             {this, "brownoutOutages", "dips that became outages"}}
{}

PowerDomain::~PowerDomain()
{
    if (startEvent_.scheduled())
        eventq().deschedule(&startEvent_);
    if (pollEvent_.scheduled())
        eventq().deschedule(&pollEvent_);
}

void
PowerDomain::attachDevice(mem::MemoryDevice *dev)
{
    ct_assert(dev != nullptr);
    devices_.push_back(dev);
}

void
PowerDomain::addCutHook(std::function<void()> hook)
{
    ct_assert(hook != nullptr);
    cutHooks_.push_back(std::move(hook));
}

void
PowerDomain::powerCut()
{
    if (!powered_ && !restoring())
        return; // already dark
    powered_ = false;
    ++stats_.cuts;

    // A cut that lands mid-restore kills the ramp; the pending
    // restore reports failure through the sequencer's abort path
    // (or right here if it had not reached the sequencer yet).
    if (startEvent_.scheduled()) {
        eventq().deschedule(&startEvent_);
        finishRestore(false);
    }
    if (pollEvent_.scheduled()) {
        eventq().deschedule(&pollEvent_);
        finishRestore(false);
    }

    // (1) What the machine sees: aborted commands, frozen link.
    for (auto &hook : cutHooks_)
        hook();
    // (2) Early power-fail warning: modules react while the bulk
    //     caps still hold the rails (NVDIMM supercap save starts).
    for (mem::MemoryDevice *dev : devices_)
        dev->powerLoss();
    // (3) The rails collapse.
    seq_.powerDown(nullptr);
}

void
PowerDomain::brownout(Tick dip)
{
    ++stats_.brownouts;
    if (!powered_) {
        // Already dark: the dip only pushes the input-good time out.
        inputGoodAt_ = std::max(inputGoodAt_, curTick() + dip);
        return;
    }
    if (seq_.ridesThrough(dip)) {
        ++stats_.brownoutsRidden;
        return;
    }
    ++stats_.brownoutOutages;
    inputGoodAt_ = curTick() + dip;
    powerCut();
}

void
PowerDomain::powerRestore(std::function<void(bool)> done)
{
    ct_assert(!restoring() && "restore already in flight");
    if (powered_) {
        if (done)
            done(true);
        return;
    }
    doneCb_ = done ? std::move(done) : [](bool) {};
    Tick wait =
        inputGoodAt_ > curTick() ? inputGoodAt_ - curTick() : 0;
    eventq().schedule(&startEvent_, curTick() + wait);
}

void
PowerDomain::startRamp()
{
    seq_.powerUp([this](bool ok) { railsUp(ok); });
}

void
PowerDomain::railsUp(bool ok)
{
    if (!ok) {
        finishRestore(false);
        return;
    }
    // Rails are good: modules see power return (NVDIMM restores
    // start streaming), then wait until every module is ready.
    for (mem::MemoryDevice *dev : devices_)
        dev->powerRestore();
    readyDeadline_ = curTick() + readyTimeout;
    pollInterval_ = readyPollFirst;
    pollReady();
}

void
PowerDomain::pollReady()
{
    bool all_ready = true;
    for (mem::MemoryDevice *dev : devices_)
        all_ready = all_ready && dev->ready();
    if (all_ready) {
        powered_ = true;
        ++stats_.restores;
        finishRestore(true);
        return;
    }
    if (curTick() >= readyDeadline_) {
        finishRestore(false);
        return;
    }
    eventq().schedule(&pollEvent_, curTick() + pollInterval_);
    pollInterval_ = std::min(pollInterval_ * 2, readyPollMax);
}

void
PowerDomain::finishRestore(bool ok)
{
    if (!ok)
        ++stats_.failedRestores;
    if (auto cb = std::move(doneCb_)) {
        doneCb_ = nullptr;
        cb(ok);
    }
}

void
PowerDomain::checkpointSave(ckpt::Section &out) const
{
    if (restoring() || startEvent_.scheduled()
        || pollEvent_.scheduled())
        panic("%s: checkpoint mid-restore", name().c_str());
    out.putU8(powered_ ? 1 : 0);
    out.putU64(inputGoodAt_);
}

void
PowerDomain::checkpointRestore(ckpt::Section &in)
{
    if (restoring() || startEvent_.scheduled()
        || pollEvent_.scheduled())
        panic("%s: restore mid-restore", name().c_str());
    powered_ = in.getU8() != 0;
    inputGoodAt_ = in.getU64();
}

} // namespace contutto::firmware
