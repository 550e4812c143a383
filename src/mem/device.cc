#include "mem/device.hh"

#include <algorithm>
#include <vector>

namespace contutto::mem
{

const char *
memTechName(MemTech t)
{
    switch (t) {
      case MemTech::dram: return "DRAM";
      case MemTech::sttMram: return "STT-MRAM";
      case MemTech::nvdimmN: return "NVDIMM-N";
    }
    return "?";
}

const char *
restoreOutcomeName(RestoreOutcome o)
{
    switch (o) {
      case RestoreOutcome::none: return "none";
      case RestoreOutcome::clean: return "clean";
      case RestoreOutcome::torn: return "torn";
      case RestoreOutcome::stale: return "stale";
      case RestoreOutcome::lost: return "lost";
    }
    return "?";
}

MemoryDevice::MemoryDevice(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent,
                           std::uint64_t capacity, MemTech tech)
    : SimObject(name, eq, domain, parent), image_(capacity),
      devStats_{{this, "bytesRead", "bytes read from the device"},
                {this, "bytesWritten", "bytes written to the device"},
                {this, "powerLossEvents", "power loss events seen"}},
      tech_(tech)
{}

void
MemoryDevice::noteWrite(Addr addr, std::size_t len)
{
    devStats_.bytesWritten += double(len);
    // Only an endurance-limited device has wear to report.
    const std::uint64_t limit = enduranceLimit();
    if (limit == 0)
        return;
    Addr first = addr / dmi::cacheLineSize;
    Addr last = (addr + len - 1) / dmi::cacheLineSize;
    for (Addr blk = first; blk <= last; ++blk) {
        std::uint64_t &count = blockWrites_[blk];
        ++count;
        if (count > maxBlockWrites_)
            maxBlockWrites_ = count;
        if (count == limit + 1)
            ++wornBlocks_;
    }
}

void
MemoryDevice::checkpointSave(ckpt::Section &out) const
{
    image_.checkpointSave(out);
    out.putU64(maxBlockWrites_);
    out.putU64(wornBlocks_);

    // Per-block write counts in block order for a canonical stream.
    std::vector<Addr> blocks;
    blocks.reserve(blockWrites_.size());
    for (const auto &[blk, count] : blockWrites_)
        blocks.push_back(blk);
    std::sort(blocks.begin(), blocks.end());
    out.putU64(blocks.size());
    for (Addr blk : blocks) {
        out.putU64(blk);
        out.putU64(blockWrites_.at(blk));
    }
}

void
MemoryDevice::checkpointRestore(ckpt::Section &in)
{
    image_.checkpointRestore(in);
    maxBlockWrites_ = in.getU64();
    wornBlocks_ = in.getU64();
    blockWrites_.clear();
    std::uint64_t count = in.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr blk = in.getU64();
        blockWrites_[blk] = in.getU64();
    }
}

DramDevice::DramDevice(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent, std::uint64_t capacity)
    : MemoryDevice(name, eq, domain, parent, capacity, MemTech::dram)
{}

void
DramDevice::powerLoss()
{
    ++devStats_.powerLossEvents;
    image_.clear(); // volatile: contents are gone
}

MramDevice::MramDevice(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent, std::uint64_t capacity,
                       Junction junction)
    : MemoryDevice(name, eq, domain, parent, capacity,
                   MemTech::sttMram),
      junction_(junction)
{}

void
MramDevice::powerLoss()
{
    ++devStats_.powerLossEvents;
    // Magnetic tunnel junctions retain state: nothing to do.
}

NvdimmDevice::NvdimmDevice(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent,
                           std::uint64_t capacity, const Params &params)
    : MemoryDevice(name, eq, domain, parent, capacity,
                   MemTech::nvdimmN),
      params_(params), flash_(capacity, params.flash),
      energy_(params.charged ? params.supercapJoules : 0.0),
      transferDone_([this] {
          if (state_ == State::saving)
              saveStep();
          else if (state_ == State::restoring)
              restoreComplete();
      }, name + ".transferDone"),
      saves_(this, "saves", "completed DRAM-to-flash saves"),
      restores_(this, "restores", "completed flash-to-DRAM restores"),
      dataLossEvents_(this, "dataLossEvents",
                      "power cycles that lost the DRAM contents"),
      abortedSaves_(this, "abortedSaves",
                    "saves aborted by power returning mid-stream"),
      failedRestores_(this, "failedRestores",
                      "restores refused on a torn or stale image"),
      segmentsSaved_(this, "segmentsSaved",
                     "flash segments programmed by saves")
{}

Tick
NvdimmDevice::saveDuration() const
{
    double secs = double(capacity()) / params_.flashBandwidth;
    return Tick(secs * 1e12);
}

Tick
NvdimmDevice::segmentDuration() const
{
    double secs =
        double(flash_.segmentSize()) / params_.flashBandwidth;
    return Tick(secs * 1e12);
}

double
NvdimmDevice::segmentJoules() const
{
    return params_.joulesPerGiB
        * (double(flash_.segmentSize()) / double(GiB));
}

void
NvdimmDevice::powerLoss()
{
    ++devStats_.powerLossEvents;
    switch (state_) {
      case State::normal:
        break;
      case State::restoring:
        // Power died mid-restore: the DRAM copy is abandoned but the
        // flash image is untouched — park it and try again later.
        eventq().deschedule(&transferDone_);
        image_.clear();
        state_ = State::saved;
        return;
      default:
        // Already dark or mid-save on supercap energy; a host-side
        // edge changes nothing for the module.
        return;
    }
    if (!params_.charged || energy_ < segmentJoules()) {
        // The save cannot even start: contents are lost, as on a
        // real module with a failed backup power source.
        image_.clear();
        state_ = State::lost;
        contentIntact_ = false;
        ++dataLossEvents_;
        return;
    }
    state_ = State::saving;
    ++generation_;
    segIndex_ = 0;
    eventq().schedule(&transferDone_,
                      curTick() + segmentDuration());
}

void
NvdimmDevice::saveStep()
{
    // One segment just finished streaming to flash.
    energy_ -= segmentJoules();
    flash_.programSegment(segIndex_, image_, generation_);
    ++segmentsSaved_;
    ++segIndex_;

    if (segIndex_ == flash_.numSegments()) {
        image_.clear(); // DRAM array loses power after the copy
        state_ = State::saved;
        ++saves_;
        return;
    }
    if (energy_ < segmentJoules()) {
        // Supercap exhausted mid-stream: the in-flight segment is
        // torn and everything after it never made it. The DRAM
        // array collapses with the backup rail.
        flash_.tearSegment(segIndex_, image_, generation_);
        image_.clear();
        state_ = State::partial;
        contentIntact_ = false;
        ++dataLossEvents_;
        return;
    }
    eventq().schedule(&transferDone_,
                      curTick() + segmentDuration());
}

void
NvdimmDevice::powerRestore()
{
    switch (state_) {
      case State::normal:
        recharge();
        break;
      case State::saving: {
        // Power returned mid-save: abort the stream. The DRAM array
        // was alive throughout (it is the copy source), so contents
        // are intact; the flash is left partially programmed with
        // the in-flight segment torn.
        eventq().deschedule(&transferDone_);
        flash_.tearSegment(segIndex_, image_, generation_);
        state_ = State::normal;
        ++abortedSaves_;
        recharge();
        break;
      }
      case State::saved:
        state_ = State::restoring;
        recharge();
        eventq().schedule(&transferDone_,
                          curTick() + saveDuration());
        break;
      case State::restoring:
        break;
      case State::partial: {
        // Boot-time validation of the torn image: classify it so
        // the refusal is grounded in the segment tags, not in the
        // state flag. The loss was already counted at save time.
        lastOutcome_ = classifyFlash();
        ct_assert(lastOutcome_ != RestoreOutcome::clean);
        ++failedRestores_;
        state_ = State::normal;
        contentIntact_ = false;
        recharge();
        break;
      }
      case State::lost:
        lastOutcome_ = RestoreOutcome::lost;
        state_ = State::normal;
        contentIntact_ = false;
        recharge();
        break;
    }
}

void
NvdimmDevice::checkpointSave(ckpt::Section &out) const
{
    if (transferDone_.scheduled())
        panic("NVDIMM checkpoint with a transfer in flight");
    MemoryDevice::checkpointSave(out);
    flash_.checkpointSave(out);
    out.putU8(std::uint8_t(state_));
    out.putF64(energy_);
    out.putU64(generation_);
    out.putU32(segIndex_);
    out.putU8(contentIntact_ ? 1 : 0);
    out.putU8(std::uint8_t(lastOutcome_));
}

void
NvdimmDevice::checkpointRestore(ckpt::Section &in)
{
    if (transferDone_.scheduled())
        panic("NVDIMM restore with a transfer in flight");
    MemoryDevice::checkpointRestore(in);
    flash_.checkpointRestore(in);
    state_ = State(in.getU8());
    energy_ = in.getF64();
    generation_ = in.getU64();
    segIndex_ = in.getU32();
    contentIntact_ = in.getU8() != 0;
    lastOutcome_ = RestoreOutcome(in.getU8());
}

RestoreOutcome
NvdimmDevice::classifyFlash() const
{
    unsigned clean = 0, torn = 0, stale = 0;
    for (unsigned s = 0; s < flash_.numSegments(); ++s) {
        switch (flash_.validateSegment(s, generation_)) {
          case SegmentState::clean: ++clean; break;
          case SegmentState::torn: ++torn; break;
          case SegmentState::stale:
          case SegmentState::erased: ++stale; break;
        }
    }
    if (torn > 0)
        return RestoreOutcome::torn;
    if (stale > 0)
        return clean > 0 ? RestoreOutcome::torn
                         : RestoreOutcome::stale;
    return RestoreOutcome::clean;
}

void
NvdimmDevice::restoreComplete()
{
    // Validate before handing the image back: a torn or stale save
    // must be *detected*, never silently served.
    RestoreOutcome outcome = classifyFlash();
    if (outcome != RestoreOutcome::clean) {
        image_.clear();
        state_ = State::normal;
        contentIntact_ = false;
        lastOutcome_ = outcome;
        ++failedRestores_;
        ++dataLossEvents_;
        return;
    }
    image_.clear();
    for (unsigned s = 0; s < flash_.numSegments(); ++s)
        flash_.readSegment(s, image_);
    state_ = State::normal;
    contentIntact_ = true;
    lastOutcome_ = RestoreOutcome::clean;
    ++restores_;
}

} // namespace contutto::mem
