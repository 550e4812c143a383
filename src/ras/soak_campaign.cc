#include "ras/soak_campaign.hh"

#include <cstddef>
#include <functional>
#include <vector>

#include "cpu/system.hh"
#include "ras/fault_injector.hh"
#include "sim/checkpoint.hh"

namespace contutto::ras
{

namespace
{

dmi::CacheLine
patternFor(unsigned op)
{
    dmi::CacheLine line;
    for (unsigned j = 0; j < line.size(); ++j)
        line[j] = std::uint8_t(op * 31 + j * 7 + 5);
    return line;
}

/** Poll the cooperative token this often between event steps. */
constexpr unsigned kCancelStride = 4096;

bool
wantCancel(const std::atomic<bool> *cancel)
{
    return cancel != nullptr
           && cancel->load(std::memory_order_relaxed);
}

/**
 * Step @p eq until @p done (or the queue drains), polling the
 * cancel token every kCancelStride events. Returns false when the
 * loop stopped because of a cancel.
 */
bool
stepUntil(EventQueue &eq, const std::function<bool()> &done,
          const std::atomic<bool> *cancel)
{
    unsigned n = 0;
    while (!done() && eq.step()) {
        if (++n % kCancelStride == 0 && wantCancel(cancel))
            return false;
    }
    return !wantCancel(cancel);
}

} // namespace

void
SoakCampaign::Spec::serialize(ckpt::Section &out) const
{
    out.putU32(bitFlips);
    out.putU32(frameCorruptions);
    out.putU32(frameDrops);
    out.putU32(burstErrors);
    out.putU32(engineStalls);
    out.putU32(ops);
    out.putU64(faultBase);
    out.putU64(faultSize);
    out.putU64(duration);
}

std::uint64_t
SoakCampaign::Spec::hash() const
{
    ckpt::Section s("spec");
    serialize(s);
    return ckpt::fnv1a(s.bytes().data(), s.bytes().size());
}

std::uint64_t
SoakCampaign::Result::fingerprint() const
{
    // Fixed-width image of every compared field, hashed; the ledger
    // stores this so a resumed campaign can detect a seed whose
    // behaviour changed under it.
    std::vector<std::uint64_t> img{
        std::uint64_t(trained),       std::uint64_t(progressed),
        std::uint64_t(nothingLeaked), std::uint64_t(regionRepaired),
        std::uint64_t(cancelled),     planned,
        applied,                      corrected,
        uncorrectable,                mismatches,
        failedOps,                    poisonedOps,
        cmdTimeouts,                  cmdRetries,
        tagsReclaimed,                droppedCompletions,
        framesCorrupted,              framesDropped,
        linkReplays,                  replaysObserved,
        escalationLevel,              scrubPasses,
    };
    return ckpt::fnv1a(img.data(),
                       img.size() * sizeof(std::uint64_t));
}

SoakCampaign::Result
SoakCampaign::run(const Spec &spec, const std::atomic<bool> *cancel)
{
    using namespace contutto::cpu;

    Result r;

    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    p.seed = spec.seed;
    // A tight watchdog so injected completion losses recover inside
    // the campaign horizon (default is 20 us).
    p.cardParams.mbs.cmdTimeout = microseconds(5);
    p.ras.scrubEnabled = true;
    p.ras.scrub.linesPerBeat = 64;
    p.ras.scrub.base = spec.faultBase;
    p.ras.scrub.size = spec.faultSize;
    p.ras.watchdogEnabled = true;

    Power8System sys(p);
    r.trained = sys.train();
    if (!r.trained || wantCancel(cancel)) {
        r.cancelled = wantCancel(cancel);
        return r;
    }

    // Region B: a cold reference region in each DIMM that only the
    // bit-flip faults and the patrol scrubber ever touch.
    std::vector<std::uint8_t> ref(spec.faultSize);
    for (std::size_t i = 0; i < ref.size(); ++i)
        ref[i] = std::uint8_t(i * 13 + (i >> 9));
    for (unsigned d = 0; d < sys.numDimms(); ++d)
        sys.dimm(d).image().write(spec.faultBase, ref.size(),
                                  ref.data());

    FaultInjector inj("inj", sys.eventq(), sys.nestDomain(), &sys,
                      spec.seed);
    inj.addMemory(&sys.dimm(0).image());
    inj.addMemory(&sys.dimm(1).image());
    inj.addChannel(&sys.downChannel());
    inj.addChannel(&sys.upChannel());
    inj.addMbs(&sys.card()->mbs());

    FaultInjector::CampaignSpec cs;
    cs.start = sys.eventq().curTick();
    cs.duration = spec.duration;
    cs.bitFlips = spec.bitFlips;
    cs.memBase = spec.faultBase;
    cs.memSize = spec.faultSize;
    cs.frameCorruptions = spec.frameCorruptions;
    cs.frameDrops = spec.frameDrops;
    cs.burstErrors = spec.burstErrors;
    cs.engineStalls = spec.engineStalls;
    auto plan = inj.runCampaign(cs);
    r.planned = plan.size();

    // Region A workload: 8 closed loops, each writing a line then
    // reading it back and checking the data bit for bit.
    unsigned started = 0, completed = 0;
    const unsigned ops = spec.ops;
    std::function<void()> issueNext = [&] {
        if (started >= ops)
            return;
        unsigned op = started++;
        Addr a = Addr(op) * dmi::cacheLineSize;
        dmi::CacheLine line = patternFor(op);
        sys.port().write(a, line,
                         [&, a, op](const HostOpResult &wr) {
            if (wr.failed)
                ++r.failedOps;
            sys.port().read(a, [&, op](const HostOpResult &rr) {
                if (rr.failed)
                    ++r.failedOps;
                if (rr.poisoned)
                    ++r.poisonedOps;
                if (rr.data != patternFor(op))
                    ++r.mismatches;
                ++completed;
                issueNext();
            });
        });
    };
    for (int i = 0; i < 8; ++i)
        issueNext();
    if (!stepUntil(sys.eventq(),
                   [&] { return completed >= ops; }, cancel)) {
        r.cancelled = true;
        return r;
    }
    r.progressed = completed == ops;
    sys.runUntilIdle();

    // Let the remainder of the campaign window elapse so every
    // planned fault has been applied.
    Tick campaignEnd = cs.start + cs.duration + microseconds(1);
    if (sys.eventq().curTick() < campaignEnd)
        sys.runFor(campaignEnd - sys.eventq().curTick());
    if (wantCancel(cancel)) {
        r.cancelled = true;
        return r;
    }

    // Drain reads: enough traffic to consume any fault budget that
    // was armed after the workload went quiet (pending frame
    // corruptions/drops, swallowed completions), so the injected
    // counts reconcile exactly against the channel and MBS stats.
    for (int i = 0; i < 48; ++i)
        sys.port().read(Addr(i) * dmi::cacheLineSize,
                        [](const HostOpResult &) {});
    sys.runUntilIdle();

    // Two further full scrub passes repair every latent bit flip.
    for (unsigned d = 0; d < sys.numDimms(); ++d) {
        PatrolScrubber *scrub = sys.channel().scrubber(d);
        if (scrub == nullptr)
            continue;
        std::uint64_t target = scrub->passes() + 2;
        if (!stepUntil(sys.eventq(),
                       [&] { return scrub->passes() >= target; },
                       cancel)) {
            r.cancelled = true;
            return r;
        }
    }

    // Forward progress with nothing leaked.
    r.nothingLeaked = sys.port().inFlight() == 0
                      && sys.port().queued() == 0
                      && sys.card()->mbs().activeEngines() == 0;

    // Data integrity: the cold region matches the reference again.
    r.regionRepaired = true;
    std::vector<std::uint8_t> now(spec.faultSize);
    for (unsigned d = 0; d < sys.numDimms(); ++d) {
        sys.dimm(d).image().read(spec.faultBase, now.size(),
                                 now.data());
        if (now != ref)
            r.regionRepaired = false;
    }

    const auto &mbs = sys.card()->mbs().mbsStats();
    const auto &down = sys.downChannel().channelStats();
    const auto &up = sys.upChannel().channelStats();
    r.applied = inj.history().size();
    r.corrected = sys.dimm(0).image().correctedErrors()
                  + sys.dimm(1).image().correctedErrors();
    r.uncorrectable = sys.dimm(0).image().uncorrectableErrors()
                      + sys.dimm(1).image().uncorrectableErrors();
    r.cmdTimeouts = std::uint64_t(mbs.cmdTimeouts.value());
    r.cmdRetries = std::uint64_t(mbs.cmdRetries.value());
    r.tagsReclaimed = std::uint64_t(mbs.tagsReclaimed.value());
    r.droppedCompletions =
        std::uint64_t(mbs.droppedCompletions.value());
    r.framesCorrupted = std::uint64_t(down.framesCorrupted.value()
                                      + up.framesCorrupted.value());
    r.framesDropped = std::uint64_t(down.framesDropped.value()
                                    + up.framesDropped.value());
    r.linkReplays = std::uint64_t(
        sys.hostLink().linkStats().replaysTriggered.value()
        + sys.card()->mbi().linkStats().replaysTriggered.value());
    LinkWatchdog *dog = sys.channel().watchdog();
    if (dog != nullptr) {
        r.replaysObserved = std::uint64_t(
            dog->watchdogStats().replaysObserved.value());
        r.escalationLevel = dog->escalationLevel();
    }
    if (sys.channel().scrubber(0) != nullptr
        && sys.channel().scrubber(1) != nullptr)
        r.scrubPasses = sys.channel().scrubber(0)->passes()
                        + sys.channel().scrubber(1)->passes();
    return r;
}

} // namespace contutto::ras
