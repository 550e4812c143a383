#include "ras/fault_injector.hh"

#include <algorithm>
#include <set>

namespace contutto::ras
{

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::dramBitFlip: return "dramBitFlip";
      case FaultKind::checkBitFlip: return "checkBitFlip";
      case FaultKind::frameCorrupt: return "frameCorrupt";
      case FaultKind::burstError: return "burstError";
      case FaultKind::frameDrop: return "frameDrop";
      case FaultKind::engineStall: return "engineStall";
      case FaultKind::scramblerDesync: return "scramblerDesync";
      case FaultKind::laneFail: return "laneFail";
      case FaultKind::powerCut: return "powerCut";
      case FaultKind::powerRestore: return "powerRestore";
      case FaultKind::brownout: return "brownout";
    }
    return "?";
}

FaultInjector::FaultInjector(const std::string &name, EventQueue &eq,
                             const ClockDomain &domain,
                             stats::StatGroup *parent,
                             std::uint64_t seed)
    : SimObject(name, eq, domain, parent), rng_(seed),
      stats_{{this, "bitFlips", "DRAM data bits flipped"},
             {this, "checkFlips", "ECC check bits flipped"},
             {this, "frameCorruptions", "frames single-bit corrupted"},
             {this, "burstErrors", "burst errors injected"},
             {this, "frameDrops", "frames dropped"},
             {this, "engineStalls", "completions swallowed"},
             {this, "scramblerDesyncs", "rx scrambler slips"},
             {this, "laneFails", "hard lane failures"},
             {this, "powerCuts", "power-domain cuts"},
             {this, "domainRestores", "power-domain restores"},
             {this, "brownouts", "input dips injected"}}
{
}

unsigned
FaultInjector::addMemory(mem::MemImage *image)
{
    ct_assert(image != nullptr);
    memories_.push_back(image);
    return unsigned(memories_.size() - 1);
}

unsigned
FaultInjector::addChannel(dmi::DmiChannel *channel)
{
    ct_assert(channel != nullptr);
    channels_.push_back(channel);
    return unsigned(channels_.size() - 1);
}

unsigned
FaultInjector::addMbs(fpga::Mbs *mbs)
{
    ct_assert(mbs != nullptr);
    mbs_.push_back(mbs);
    return unsigned(mbs_.size() - 1);
}

unsigned
FaultInjector::addPowerTarget(PowerTarget *target)
{
    ct_assert(target != nullptr);
    powerTargets_.push_back(target);
    return unsigned(powerTargets_.size() - 1);
}

void
FaultInjector::inject(const FaultEvent &ev)
{
    switch (ev.kind) {
      case FaultKind::dramBitFlip:
        memories_.at(ev.target)->injectBitFlip(ev.addr, ev.bit);
        ++stats_.bitFlips;
        break;
      case FaultKind::checkBitFlip:
        memories_.at(ev.target)->injectCheckBitFlip(ev.addr,
                                                    ev.bit % 8);
        ++stats_.checkFlips;
        break;
      case FaultKind::frameCorrupt:
        channels_.at(ev.target)->corruptNext(ev.count);
        stats_.frameCorruptions += ev.count;
        break;
      case FaultKind::burstError:
        channels_.at(ev.target)->corruptBurst(ev.bit, ev.count);
        ++stats_.burstErrors;
        break;
      case FaultKind::frameDrop:
        channels_.at(ev.target)->dropNext(ev.count);
        stats_.frameDrops += ev.count;
        break;
      case FaultKind::engineStall:
        mbs_.at(ev.target)->stallNextCompletions(ev.count);
        stats_.engineStalls += ev.count;
        break;
      case FaultKind::scramblerDesync:
        channels_.at(ev.target)->desyncRxScrambler();
        ++stats_.scramblerDesyncs;
        break;
      case FaultKind::laneFail:
        channels_.at(ev.target)->failLane(ev.bit);
        ++stats_.laneFails;
        break;
      case FaultKind::powerCut:
        powerTargets_.at(ev.target)->powerCut();
        ++stats_.powerCuts;
        break;
      case FaultKind::powerRestore:
        powerTargets_.at(ev.target)->powerRestore();
        ++stats_.domainRestores;
        break;
      case FaultKind::brownout:
        powerTargets_.at(ev.target)->brownout(ev.duration);
        ++stats_.brownouts;
        break;
    }
    history_.push_back(ev);
}

void
FaultInjector::schedule(const FaultEvent &ev)
{
    ct_assert(ev.when >= curTick());
    FaultEvent copy = ev;
    OneShotEvent::schedule(eventq(), ev.when,
                           [this, copy] { inject(copy); });
}

std::vector<FaultEvent>
FaultInjector::planCampaign(const CampaignSpec &spec)
{
    std::vector<FaultEvent> plan;
    auto randWhen = [&] {
        return spec.start
            + Tick(rng_.below(std::uint64_t(spec.duration) + 1));
    };

    if (spec.bitFlips > 0) {
        ct_assert(!memories_.empty());
        ct_assert(spec.memSize >= Addr(spec.bitFlips) * 8
                  && "need one distinct word per flip");
        // Distinct (image, word) pairs: a second flip in the same
        // word would turn a correctable fault uncorrectable and
        // break the campaign's counter accounting.
        std::set<std::pair<unsigned, Addr>> used;
        while (used.size() < spec.bitFlips) {
            unsigned target =
                unsigned(rng_.below(memories_.size()));
            Addr word = spec.memBase
                + Addr(rng_.below(spec.memSize / 8)) * 8;
            if (!used.insert({target, word}).second)
                continue;
            FaultEvent ev;
            ev.when = randWhen();
            ev.kind = FaultKind::dramBitFlip;
            ev.target = target;
            ev.addr = word;
            ev.bit = unsigned(rng_.below(64));
            plan.push_back(ev);
        }
    }

    auto channelFaults = [&](FaultKind kind, unsigned n,
                             unsigned bit, unsigned count) {
        if (n == 0)
            return;
        ct_assert(!channels_.empty());
        for (unsigned i = 0; i < n; ++i) {
            FaultEvent ev;
            ev.when = randWhen();
            ev.kind = kind;
            ev.target = unsigned(rng_.below(channels_.size()));
            ev.bit = bit;
            ev.count = count;
            plan.push_back(ev);
        }
    };
    channelFaults(FaultKind::frameCorrupt, spec.frameCorruptions,
                  0, 1);
    channelFaults(FaultKind::frameDrop, spec.frameDrops, 0, 1);
    if (spec.burstErrors > 0) {
        ct_assert(!channels_.empty());
        for (unsigned i = 0; i < spec.burstErrors; ++i) {
            FaultEvent ev;
            ev.when = randWhen();
            ev.kind = FaultKind::burstError;
            ev.target = unsigned(rng_.below(channels_.size()));
            ev.bit = unsigned(rng_.below(64));
            ev.count = spec.burstBits;
            plan.push_back(ev);
        }
    }
    channelFaults(FaultKind::scramblerDesync, spec.scramblerDesyncs,
                  0, 1);

    if (spec.engineStalls > 0) {
        ct_assert(!mbs_.empty());
        for (unsigned i = 0; i < spec.engineStalls; ++i) {
            FaultEvent ev;
            ev.when = randWhen();
            ev.kind = FaultKind::engineStall;
            ev.target = unsigned(rng_.below(mbs_.size()));
            ev.count = 1;
            plan.push_back(ev);
        }
    }

    if (spec.powerCuts > 0) {
        ct_assert(!powerTargets_.empty());
        ct_assert(spec.outageMin <= spec.outageMax);
        for (unsigned i = 0; i < spec.powerCuts; ++i) {
            FaultEvent cut;
            cut.when = randWhen();
            cut.kind = FaultKind::powerCut;
            cut.target = unsigned(rng_.below(powerTargets_.size()));
            Tick outage =
                Tick(rng_.range(std::uint64_t(spec.outageMin),
                                std::uint64_t(spec.outageMax)));
            FaultEvent restore = cut;
            restore.kind = FaultKind::powerRestore;
            restore.when = cut.when + outage;
            plan.push_back(cut);
            plan.push_back(restore);
        }
    }

    if (spec.brownouts > 0) {
        ct_assert(!powerTargets_.empty());
        ct_assert(spec.brownoutMin <= spec.brownoutMax);
        for (unsigned i = 0; i < spec.brownouts; ++i) {
            FaultEvent ev;
            ev.when = randWhen();
            ev.kind = FaultKind::brownout;
            ev.target = unsigned(rng_.below(powerTargets_.size()));
            ev.duration =
                Tick(rng_.range(std::uint64_t(spec.brownoutMin),
                                std::uint64_t(spec.brownoutMax)));
            plan.push_back(ev);
        }
    }

    // Apply in time order so the schedule below is stable and the
    // history reads chronologically.
    std::stable_sort(plan.begin(), plan.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.when < b.when;
                     });
    return plan;
}

std::vector<FaultEvent>
FaultInjector::runCampaign(const CampaignSpec &spec)
{
    std::vector<FaultEvent> plan = planCampaign(spec);
    for (const FaultEvent &ev : plan)
        schedule(ev);
    return plan;
}

std::uint64_t
FaultInjector::injected(FaultKind kind) const
{
    const stats::Scalar *s = nullptr;
    switch (kind) {
      case FaultKind::dramBitFlip: s = &stats_.bitFlips; break;
      case FaultKind::checkBitFlip: s = &stats_.checkFlips; break;
      case FaultKind::frameCorrupt:
        s = &stats_.frameCorruptions;
        break;
      case FaultKind::burstError: s = &stats_.burstErrors; break;
      case FaultKind::frameDrop: s = &stats_.frameDrops; break;
      case FaultKind::engineStall: s = &stats_.engineStalls; break;
      case FaultKind::scramblerDesync:
        s = &stats_.scramblerDesyncs;
        break;
      case FaultKind::laneFail: s = &stats_.laneFails; break;
      case FaultKind::powerCut: s = &stats_.powerCuts; break;
      case FaultKind::powerRestore:
        s = &stats_.domainRestores;
        break;
      case FaultKind::brownout: s = &stats_.brownouts; break;
    }
    return s ? std::uint64_t(s->value()) : 0;
}

void
FaultInjector::checkpointSave(ckpt::Section &out) const
{
    rng_.checkpointSave(out);
    out.putU64(history_.size());
    for (const FaultEvent &ev : history_) {
        out.putU64(ev.when);
        out.putU8(std::uint8_t(ev.kind));
        out.putU32(ev.target);
        out.putU64(ev.addr);
        out.putU32(ev.bit);
        out.putU32(ev.count);
        out.putU64(ev.duration);
    }
}

void
FaultInjector::checkpointRestore(ckpt::Section &in)
{
    rng_.checkpointRestore(in);
    history_.clear();
    std::uint64_t n = in.getU64();
    history_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        FaultEvent ev;
        ev.when = in.getU64();
        const std::uint8_t kind = in.getU8();
        if (kind > std::uint8_t(FaultKind::brownout))
            throw ckpt::Error("fault injector checkpoint: unknown "
                              "fault kind "
                              + std::to_string(unsigned(kind)));
        ev.kind = FaultKind(kind);
        ev.target = in.getU32();
        ev.addr = in.getU64();
        ev.bit = in.getU32();
        ev.count = in.getU32();
        ev.duration = in.getU64();
        history_.push_back(ev);
    }
}

} // namespace contutto::ras
