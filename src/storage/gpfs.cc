#include "storage/gpfs.hh"

namespace contutto::storage
{

namespace
{

/** Filesystem CPU cost per application write. */
constexpr Tick fsOverhead = microseconds(6);
/** Dirty blocks per sequential destage write. */
constexpr unsigned destageBatch = 64;
/** Dirty blocks allowed before application writes stall. */
constexpr unsigned dirtyLimit = 8192;

} // namespace

GpfsWriteCache::GpfsWriteCache(const std::string &name,
                               EventQueue &eq,
                               const ClockDomain &domain,
                               stats::StatGroup *parent,
                               BlockDevice *cache,
                               BlockDevice &backing)
    : SimObject(name, eq, domain, parent),
      cache_(cache), backing_(backing),
      stats_{{this, "appWrites", "application writes completed"},
             {this, "destages", "sequential destage writes issued"},
             {this, "stalls", "writes stalled on a full cache"},
             {this, "dirtyPeak",
              "most blocks dirty in the cache at once"},
             {this, "appWriteLatency",
              "application-visible write latency (us)"}}
{}

void
GpfsWriteCache::appWrite(std::uint64_t lba, std::function<void()> done)
{
    Tick issued = curTick();
    auto finish = [this, issued, done] {
        ++stats_.appWrites;
        stats_.appWriteLatency.sample(
            ticksToNs(curTick() - issued) / 1000.0);
        if (done)
            done();
    };

    if (!cache_) {
        // Direct mode: the small random write pays the disk's full
        // reposition cost.
        OneShotEvent::schedule(
            eventq(), curTick() + fsOverhead,
            [this, lba, finish] {
                BlockRequest req;
                req.lba = lba;
                req.isWrite = true;
                req.onDone = [finish](const BlockRequest &) {
                    finish();
                };
                backing_.submit(std::move(req));
            });
        return;
    }

    if (dirtyBlocks_ >= dirtyLimit) {
        // Cache full: the application stalls until destage frees
        // room; retried after the next destage completes.
        ++stats_.stalls;
        stalledWrites_.push_back(
            [this, lba, done] { appWrite(lba, done); });
        maybeDestage();
        return;
    }

    OneShotEvent::schedule(
        eventq(), curTick() + fsOverhead,
        [this, finish] {
            // The write goes to the cache's log sequentially; small
            // random application writes become sequential cache
            // traffic, the aggregation Table 4 relies on.
            BlockRequest req;
            req.lba = cacheCursor_;
            cacheCursor_ =
                (cacheCursor_ + 1) % cache_->capacityBlocks();
            req.isWrite = true;
            req.onDone = [this, finish](const BlockRequest &) {
                ++dirtyBlocks_;
                if (double(dirtyBlocks_) > stats_.dirtyPeak.value())
                    stats_.dirtyPeak = double(dirtyBlocks_);
                finish();
                maybeDestage();
            };
            cache_->submit(std::move(req));
        });
}

void
GpfsWriteCache::maybeDestage()
{
    if (destaging_ || dirtyBlocks_ < destageBatch)
        return;
    destaging_ = true;
    ++stats_.destages;
    BlockRequest req;
    req.lba = backingCursor_;
    req.blocks = destageBatch;
    backingCursor_ = (backingCursor_ + destageBatch)
        % backing_.capacityBlocks();
    req.isWrite = true;
    req.onDone = [this](const BlockRequest &r) {
        ct_assert(dirtyBlocks_ >= r.blocks);
        dirtyBlocks_ -= r.blocks;
        destaging_ = false;
        // Release stalled writers now that room exists.
        auto stalled = std::move(stalledWrites_);
        stalledWrites_.clear();
        for (auto &retry : stalled)
            retry();
        maybeDestage();
    };
    backing_.submit(std::move(req));
}

} // namespace contutto::storage
