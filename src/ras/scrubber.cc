#include "ras/scrubber.hh"

#include <algorithm>

namespace contutto::ras
{

namespace
{

/** Scrub granule: one 64-byte ECC line. */
constexpr std::size_t lineSize = 64;
static_assert(lineSize > 0);
/** Time between scrub beats. */
constexpr Tick period = microseconds(1);
static_assert(period > 0);

} // namespace

PatrolScrubber::PatrolScrubber(const std::string &name, EventQueue &eq,
                               const ClockDomain &domain,
                               stats::StatGroup *parent,
                               const Params &params,
                               mem::MemImage &image)
    : SimObject(name, eq, domain, parent), params_(params),
      image_(image), cursor_(params.base),
      beatEvent_([this] { beat(); }, name + ".beat"),
      stats_{{this, "linesScrubbed", "lines verified by patrol"},
             {this, "scrubCorrected",
              "single-bit faults repaired by patrol"},
             {this, "scrubUncorrectable",
              "multi-bit faults found by patrol"},
             {this, "scrubPasses", "complete sweeps of the region"}}
{
    ct_assert(params_.linesPerBeat > 0);
    if (params_.size == 0)
        params_.size = image_.capacity() - params_.base;
    ct_assert(params_.base + params_.size <= image_.capacity());
}

PatrolScrubber::~PatrolScrubber()
{
    if (beatEvent_.scheduled())
        eventq().deschedule(&beatEvent_);
}

void
PatrolScrubber::start()
{
    if (running_)
        return;
    running_ = true;
    if (!beatEvent_.scheduled())
        eventq().schedule(&beatEvent_, curTick() + period);
}

void
PatrolScrubber::stop()
{
    running_ = false;
    if (beatEvent_.scheduled())
        eventq().deschedule(&beatEvent_);
}

void
PatrolScrubber::beat()
{
    if (!running_)
        return;
    Addr end = params_.base + params_.size;
    for (unsigned i = 0; i < params_.linesPerBeat; ++i) {
        std::size_t len = std::size_t(
            std::min<std::uint64_t>(lineSize, end - cursor_));
        mem::EccScan scan = image_.verify(cursor_, len);
        ++stats_.linesScrubbed;
        stats_.scrubCorrected += scan.corrected;
        stats_.scrubUncorrectable += scan.uncorrectable;
        if (scan.uncorrectable != 0 && errorLog_)
            errorLog_->record(curTick(), name(),
                              firmware::Severity::recoverable,
                              "scrub found uncorrectable line at 0x"
                                  + std::to_string(cursor_));
        cursor_ += len;
        if (cursor_ >= end) {
            cursor_ = params_.base;
            ++stats_.scrubPasses;
        }
    }
    eventq().schedule(&beatEvent_, curTick() + period);
}

} // namespace contutto::ras
