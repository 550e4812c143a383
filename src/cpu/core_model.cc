#include "cpu/core_model.hh"

namespace contutto::cpu
{

CoreModel::CoreModel(const std::string &name, EventQueue &eq,
                     const ClockDomain &domain,
                     stats::StatGroup *parent,
                     const WorkloadProfile &profile,
                     const Params &params, HostMemPort &port)
    : SimObject(name, eq, domain, parent),
      ChannelTrips(eq, port, params.nestOverhead, params.sampler),
      profile_(profile), params_(params),
      rng_(params.seed ^ std::hash<std::string>{}(profile.name)),
      advanceEvent_([this] { missPoint(); }, name + ".advance")
{
    ct_assert(profile_.workingSet >= dmi::cacheLineSize);
}

CoreModel::~CoreModel()
{
    if (advanceEvent_.scheduled())
        eventq().deschedule(&advanceEvent_);
}

void
CoreModel::start(std::function<void(const Result &)> done)
{
    ct_assert(!running_);
    running_ = true;
    done_ = std::move(done);
    instructionsDone_ = 0;
    missesIssued_ = missesDone_ = 0;
    startedAt_ = curTick();
    advance();
}

void
CoreModel::advance()
{
    if (!running_ || stalled_ || advanceEvent_.scheduled())
        return;
    if (instructionsDone_ >= params_.instructions) {
        maybeFinish();
        return;
    }

    std::uint64_t remaining =
        params_.instructions - instructionsDone_;
    std::uint64_t seg;
    if (profile_.missesPerKiloInstr <= 0.0) {
        seg = remaining;
    } else {
        double mean = 1000.0 / profile_.missesPerKiloInstr;
        // +/-50% jitter keeps miss spacing from beating against the
        // memory system deterministically.
        double jitter = 0.5 + rng_.uniform();
        seg = std::uint64_t(mean * jitter);
        if (seg < 1)
            seg = 1;
        if (seg > remaining)
            seg = remaining;
    }

    // Compute time for the segment at the base (perfect-memory) CPI.
    Tick compute =
        Tick(double(seg) * profile_.baseCpi * double(clockPeriod()));
    instructionsDone_ += seg;
    eventq().schedule(&advanceEvent_, curTick() + compute);
}

void
CoreModel::missPoint()
{
    if (!running_)
        return;
    if (profile_.missesPerKiloInstr <= 0.0) {
        maybeFinish();
        return;
    }

    double p = rng_.uniform();
    MissKind kind;
    if (p < profile_.chaseFraction)
        kind = MissKind::chase;
    else if (p < profile_.chaseFraction + profile_.streamFraction)
        kind = MissKind::stream;
    else
        kind = MissKind::random;
    issueMiss(kind);

    if (!stalled_)
        advance();
    if (instructionsDone_ >= params_.instructions)
        maybeFinish();
}

void
CoreModel::issueMiss(MissKind kind)
{
    // Capacity checks: the core stalls when the kind's MLP window is
    // full (and always behind a dependent chase).
    bool blocked = false;
    switch (kind) {
      case MissKind::chase:
        blocked = chaseOutstanding_;
        break;
      case MissKind::stream:
        blocked = outstandingStream_ >= profile_.streamMlp;
        break;
      case MissKind::random:
        blocked = outstandingRandom_ >= profile_.mlp;
        break;
    }
    if (blocked) {
        pendingMiss_ = true;
        pendingKind_ = kind;
        stalled_ = true;
        return;
    }

    std::uint64_t lines = profile_.workingSet / dmi::cacheLineSize;
    Addr addr;
    if (kind == MissKind::stream) {
        streamCursor_ += dmi::cacheLineSize;
        if (streamCursor_ >= profile_.workingSet)
            streamCursor_ = 0;
        addr = streamCursor_;
    } else {
        addr = rng_.below(lines) * dmi::cacheLineSize;
    }

    switch (kind) {
      case MissKind::chase:
        chaseOutstanding_ = true;
        stalled_ = true; // dependent load: the window drains
        break;
      case MissKind::stream:
        ++outstandingStream_;
        break;
      case MissKind::random:
        ++outstandingRandom_;
        break;
    }
    ++missesIssued_;

    // Every RNG draw happens before the trip, whose sampling
    // decision draws from its own stream: the address/kind/write
    // streams are identical in both regimes.
    bool isWrite = rng_.chance(profile_.writeFraction);
    if (params_.capture)
        params_.capture->record(
            curTick(), addr,
            trace::makeOp(isWrite, kind == MissKind::chase));
    trip(instructionsDone_, addr, isWrite, std::uint32_t(kind));
}

void
CoreModel::tripDone(std::uint32_t token)
{
    const auto kind = MissKind(token);
    ++missesDone_;
    switch (kind) {
      case MissKind::chase:
        chaseOutstanding_ = false;
        break;
      case MissKind::stream:
        ct_assert(outstandingStream_ > 0);
        --outstandingStream_;
        break;
      case MissKind::random:
        ct_assert(outstandingRandom_ > 0);
        --outstandingRandom_;
        break;
    }

    if (pendingMiss_) {
        MissKind k = pendingKind_;
        pendingMiss_ = false;
        issueMiss(k);
        if (pendingMiss_)
            return; // still blocked
    }
    if (stalled_ && !chaseOutstanding_ && !pendingMiss_) {
        stalled_ = false;
        advance();
    }
    maybeFinish();
}

void
CoreModel::maybeFinish()
{
    if (!running_)
        return;
    if (instructionsDone_ < params_.instructions)
        return;
    if (missesDone_ < missesIssued_ || pendingMiss_)
        return;
    if (advanceEvent_.scheduled())
        return;

    running_ = false;
    if (params_.sampler)
        params_.sampler->finishRun(instructionsDone_, curTick(),
                                   instructionsDone_);
    Result result;
    result.runtime = curTick() - startedAt_;
    result.instructions = instructionsDone_;
    result.misses = missesDone_;
    double cycles = double(result.runtime) / double(clockPeriod());
    result.cpi = cycles / double(result.instructions);
    result.ips =
        double(result.instructions) / ticksToSeconds(result.runtime);
    if (done_)
        done_(result);
}

} // namespace contutto::cpu
