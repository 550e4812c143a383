#include "cpu/system.hh"

namespace contutto::cpu
{

Power8System::Power8System(const Params &params)
    : stats::StatGroup("system"), eqStats_(this, eq_)
{
    if (params.fabricPeriod != clocks_.fabric.period())
        clocks_.fabric =
            ClockDomain("fabric", params.fabricPeriod);
    channel_ = std::make_unique<MemoryChannel>("chan0", eq_, clocks_,
                                               this, params);
}

Power8System::~Power8System() = default;

sim::SamplingController &
Power8System::enableSampling(const sim::SamplingConfig &cfg,
                             std::uint64_t seed)
{
    ct_assert(!sampler_);
    sampler_ = std::make_unique<sim::SamplingController>(cfg, seed);
    sampler_->setFunctionalWrite(
        [this](Addr addr, const dmi::CacheLine &line) {
            channel_->warmWrite(addr, line.size(), line.data());
        });
    samplingStats_ =
        std::make_unique<sim::SamplingStats>(this, *sampler_);
    return *sampler_;
}

bool
Power8System::train()
{
    bool finished = false;
    channel_->trainAsync(
        [&](const dmi::TrainingResult &) { finished = true; });
    while (!finished && eq_.step()) {
    }
    return trainingResult().success;
}

double
Power8System::measureReadLatencyNs(unsigned samples, Addr stride,
                                   Addr base)
{
    ct_assert(samples > 0);

    // Warm pass: touch every probe line once (fills the Centaur
    // cache when it is enabled, opens DRAM rows otherwise).
    unsigned done = 0;
    std::function<void()> warm = [&] {
        if (done == samples)
            return;
        Addr a = base + Addr(done) * stride;
        ++done;
        port().read(a, [&](const HostOpResult &) { warm(); });
    };
    warm();
    runUntilIdle();

    // Measure pass: dependent single commands, as in the paper.
    double total_ns = 0;
    done = 0;
    std::function<void()> probe = [&] {
        if (done == samples)
            return;
        Addr a = base + Addr(done) * stride;
        ++done;
        port().read(a, [&](const HostOpResult &r) {
            total_ns += ticksToNs(r.dataAt - r.issuedAt);
            probe();
        });
    };
    probe();
    runUntilIdle();

    return total_ns / samples
        + ticksToNs(channel_->params().nestOverhead);
}

bool
Power8System::runUntilIdle(Tick timeout)
{
    Tick deadline = eq_.curTick() + timeout;
    for (;;) {
        if (channel_->quiescent())
            return true;
        if (eq_.curTick() >= deadline)
            return false;
        if (!eq_.step())
            return channel_->quiescent();
    }
}

void
Power8System::runFor(Tick duration)
{
    eq_.run(eq_.curTick() + duration);
}

} // namespace contutto::cpu
