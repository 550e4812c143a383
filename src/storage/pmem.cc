#include "storage/pmem.hh"

#include <cstring>
#include <algorithm>
#include <vector>

#include "sim/span.hh"

namespace contutto::storage
{

namespace
{

/** First 8 payload bytes of every line the driver writes. */
constexpr std::uint64_t lineMagic = 0x434f4e54504d454dull;

/** Header layout inside one 128-byte line. */
constexpr std::size_t magicOff = 0;
constexpr std::size_t lbaOff = 8;
constexpr std::size_t seqOff = 16;
constexpr std::size_t indexOff = 24;
constexpr std::size_t patternOff = 32;

std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
storeU64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

std::uint8_t
patternByte(std::uint64_t lba, std::uint64_t seq, unsigned index,
            std::size_t i)
{
    return std::uint8_t(lba * 131 + seq * 29 + index * 17 + i * 7
                        + 0x5a);
}

} // namespace

const char *
blockCheckName(BlockCheck c)
{
    switch (c) {
      case BlockCheck::unwritten: return "unwritten";
      case BlockCheck::intact: return "intact";
      case BlockCheck::newer: return "newer";
      case BlockCheck::torn: return "torn";
      case BlockCheck::stale: return "stale";
      case BlockCheck::lost: return "lost";
    }
    return "?";
}

PmemBlockDevice::PmemBlockDevice(const std::string &name,
                                 cpu::Power8System &sys,
                                 stats::StatGroup *parent,
                                 const Params &params)
    : BlockDevice(name, sys.eventq(), sys.nestDomain(), parent,
                  params.capacityBlocks),
      sys_(sys), params_(params),
      stats_{{this, "flushesIssued",
              "flush commands for persistence"},
             {this, "blocksFenced",
              "blocks whose fence completed (ledger advances)"},
             {this, "verifies", "post-recovery block audits"},
             {this, "tornDetected", "torn block images detected"},
             {this, "staleDetected", "stale block images detected"},
             {this, "lostDetected", "wiped block images detected"}}
{}

void
PmemBlockDevice::fillLine(std::uint8_t *line, std::uint64_t lba,
                          std::uint64_t seq, unsigned index) const
{
    storeU64(line + magicOff, lineMagic);
    storeU64(line + lbaOff, lba);
    storeU64(line + seqOff, seq);
    storeU64(line + indexOff, index);
    for (std::size_t i = patternOff; i < dmi::cacheLineSize; ++i)
        line[i] = patternByte(lba, seq, index, i);
}

void
PmemBlockDevice::submit(BlockRequest req)
{
    req.issuedAt = curTick();
    if (offline_) {
        fail(req);
        return;
    }
    queue_.push_back(std::move(req));
    if (!busy_)
        startNext();
}

void
PmemBlockDevice::powerCut()
{
    if (offline_)
        return;
    offline_ = true;
    // The current request (if any) finishes as failed when its
    // aborted line/flush callbacks land or its driver-delay event
    // fires; everything still queued dies here.
    for (BlockRequest &req : queue_)
        fail(req);
    queue_.clear();
}

void
PmemBlockDevice::startNext()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    current_ = std::move(queue_.front());
    queue_.pop_front();
    currentFailed_ = false;
    currentSeq_ = current_.isWrite ? ++writeSeq_ : 0;

    // One block-level span per 4 KiB operation; the 32 line commands
    // it fans into carry their own per-line ids from the host port.
    currentTraceId_ = span::enabled() ? span::acquireId() : noTraceId;
    if (currentTraceId_ != noTraceId)
        span::open(currentTraceId_, "pmem.block", curTick());

    Tick driver = current_.isWrite ? params_.driverWriteCost
                                   : params_.driverReadCost;
    OneShotEvent::schedule(eventq(), curTick() + driver,
                           [this] { issueLines(current_); });
}

void
PmemBlockDevice::finishCurrent()
{
    if (currentTraceId_ != noTraceId) {
        span::closeAll(currentTraceId_, curTick());
        currentTraceId_ = noTraceId;
    }
    if (currentFailed_)
        fail(current_);
    else
        complete(current_);
    startNext();
}

void
PmemBlockDevice::issueLines(const BlockRequest &req)
{
    if (offline_) {
        // Power died during the driver-cost window; nothing was put
        // on the wire, nothing reached media.
        currentFailed_ = true;
        finishCurrent();
        return;
    }

    unsigned lines_per_block =
        unsigned(blockSize / dmi::cacheLineSize);
    unsigned total = req.blocks * lines_per_block;
    linesOutstanding_ = total;
    flushOutstanding_ = false;

    if (req.isWrite)
        for (unsigned b = 0; b < req.blocks; ++b)
            issued_[req.lba + b] = currentSeq_;

    Addr base = req.lba * blockSize;
    for (unsigned i = 0; i < total; ++i) {
        Addr addr = base + Addr(i) * dmi::cacheLineSize;
        auto line_done = [this](const cpu::HostOpResult &r) {
            ct_assert(linesOutstanding_ > 0);
            if (r.failed)
                currentFailed_ = true;
            if (--linesOutstanding_ > 0)
                return;
            if (offline_)
                currentFailed_ = true;
            if (!current_.isWrite || !params_.flushOnWrite
                || currentFailed_) {
                finishCurrent();
                return;
            }
            // Persistence fence: the ConTutto flush drains the line
            // writes to the media; only its completion moves the
            // durability ledger forward.
            ++stats_.flushesIssued;
            flushOutstanding_ = true;
            if (currentTraceId_ != noTraceId)
                span::open(currentTraceId_, "pmem.fence", curTick());
            sys_.port().flush([this](const cpu::HostOpResult &fr) {
                flushOutstanding_ = false;
                if (currentTraceId_ != noTraceId)
                    span::closeIfOpen(currentTraceId_, "pmem.fence",
                                      curTick());
                if (fr.failed || offline_) {
                    currentFailed_ = true;
                } else {
                    for (unsigned b = 0; b < current_.blocks; ++b) {
                        durable_[current_.lba + b] = currentSeq_;
                        ++stats_.blocksFenced;
                    }
                }
                finishCurrent();
            });
        };
        if (req.isWrite) {
            dmi::CacheLine line{};
            fillLine(line.data(), req.lba + i / lines_per_block,
                     currentSeq_, i % lines_per_block);
            sys_.port().write(addr, line, line_done);
        } else {
            sys_.port().read(addr, line_done);
        }
    }
}

BlockCheck
PmemBlockDevice::verifyBlock(std::uint64_t lba)
{
    ++stats_.verifies;
    std::uint64_t durable = durableSeq(lba);

    unsigned lines_per_block =
        unsigned(blockSize / dmi::cacheLineSize);
    Addr base = lba * blockSize;

    unsigned valid = 0;
    bool mixed = false;
    bool seen_seq = false;
    std::uint64_t seq = 0;
    for (unsigned i = 0; i < lines_per_block; ++i) {
        std::uint8_t line[dmi::cacheLineSize];
        sys_.functionalRead(base + Addr(i) * dmi::cacheLineSize,
                            dmi::cacheLineSize, line);
        if (loadU64(line + magicOff) != lineMagic)
            continue; // unrecognizable line
        std::uint64_t line_lba = loadU64(line + lbaOff);
        std::uint64_t line_seq = loadU64(line + seqOff);
        std::uint64_t line_index = loadU64(line + indexOff);
        bool ok = line_lba == lba && line_index == i;
        for (std::size_t b = patternOff;
             ok && b < dmi::cacheLineSize; ++b)
            ok = line[b]
                == patternByte(line_lba, line_seq,
                               unsigned(line_index), b);
        if (!ok)
            continue; // corrupt body: counts as invalid
        ++valid;
        if (seen_seq && line_seq != seq)
            mixed = true;
        seen_seq = true;
        seq = line_seq;
    }

    if (durable == 0)
        return BlockCheck::unwritten;
    if (valid == 0) {
        ++stats_.lostDetected;
        return BlockCheck::lost;
    }
    if (mixed || valid != lines_per_block) {
        ++stats_.tornDetected;
        return BlockCheck::torn;
    }
    if (seq == durable)
        return BlockCheck::intact;
    if (seq > durable)
        return BlockCheck::newer;
    ++stats_.staleDetected;
    return BlockCheck::stale;
}

namespace
{

/** Serialize an lba->sequence ledger in LBA order so the same
 *  contents always produce the same bytes. */
void
saveLedger(const std::unordered_map<std::uint64_t,
                                    std::uint64_t> &ledger,
           ckpt::Section &out)
{
    std::vector<std::uint64_t> lbas;
    lbas.reserve(ledger.size());
    for (const auto &[lba, seq] : ledger)
        lbas.push_back(lba);
    std::sort(lbas.begin(), lbas.end());
    out.putU64(lbas.size());
    for (std::uint64_t lba : lbas) {
        out.putU64(lba);
        out.putU64(ledger.at(lba));
    }
}

void
restoreLedger(std::unordered_map<std::uint64_t, std::uint64_t> &ledger,
              ckpt::Section &in)
{
    ledger.clear();
    std::uint64_t n = in.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t lba = in.getU64();
        ledger[lba] = in.getU64();
    }
}

} // namespace

void
PmemBlockDevice::checkpointSave(ckpt::Section &out) const
{
    if (busy_ || !queue_.empty() || linesOutstanding_ != 0
        || flushOutstanding_)
        panic("pmem checkpoint with requests outstanding");
    out.putU64(writeSeq_);
    out.putU8(offline_ ? 1 : 0);
    saveLedger(durable_, out);
    saveLedger(issued_, out);
}

void
PmemBlockDevice::checkpointRestore(ckpt::Section &in)
{
    if (busy_ || !queue_.empty() || linesOutstanding_ != 0
        || flushOutstanding_)
        panic("pmem restore with requests outstanding");
    writeSeq_ = in.getU64();
    offline_ = in.getU8() != 0;
    restoreLedger(durable_, in);
    restoreLedger(issued_, in);
}

} // namespace contutto::storage
