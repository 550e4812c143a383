#include "mem/ddr3_controller.hh"

#include "sim/span.hh"

namespace contutto::mem
{

namespace
{
/** Bytes per bank row (column span): 8 KiB, a typical DDR3 page. */
constexpr std::uint64_t rowBytes = 8192;
/** DDR3-1333, the common ConTutto DIMM grade. */
constexpr DramTiming timing = ddr3_1333();
/**
 * log2 of the bank-interleave granule: above log2(lineSize), so a
 * controller behind a line-interleaved address space still spreads
 * its share of the lines across all banks.
 */
constexpr unsigned bankInterleaveShift = 7;
} // namespace

Ddr3Controller::Ddr3Controller(const std::string &name, EventQueue &eq,
                               const ClockDomain &domain,
                               stats::StatGroup *parent,
                               const Params &params,
                               MemoryDevice &device)
    : SimObject(name, eq, domain, parent), params_(params),
      device_(device),
      issueEvent_([this] { tryIssue(); }, name + ".issue"),
      refreshEvent_([this] { refreshTick(); }, name + ".refresh"),
      stats_{{this, "reads", "read requests served"},
             {this, "writes", "write requests served"},
             {this, "rowHits", "column accesses hitting an open row"},
             {this, "rowMisses", "accesses needing activate"},
             {this, "refreshes", "all-bank refreshes performed"},
             {this, "eccCorrected", "single-bit errors corrected on read"},
             {this, "eccUncorrectable", "reads poisoned by multi-bit errors"},
             {this, "accessLatency", "submit-to-done latency (ns)"}}
{
    static_assert(numBanks > 0);
    if (device_.needsRefresh())
        eventq().schedule(&refreshEvent_,
                          curTick() + timing.tREFI);
}

Ddr3Controller::~Ddr3Controller()
{
    if (issueEvent_.scheduled())
        eventq().deschedule(&issueEvent_);
    if (refreshEvent_.scheduled())
        eventq().deschedule(&refreshEvent_);
}

unsigned
Ddr3Controller::bankOf(Addr addr) const
{
    return unsigned((addr >> bankInterleaveShift) % numBanks);
}

std::uint64_t
Ddr3Controller::rowOf(Addr addr) const
{
    return addr / (rowBytes * numBanks);
}

void
Ddr3Controller::submit(const MemRequestPtr &req)
{
    ct_assert(req != nullptr);
    ct_assert(req->size > 0 && req->size <= dmi::cacheLineSize);
    if (!canAccept())
        panic("%s: request queue overflow", name().c_str());
    if (req->traceId != noTraceId)
        span::open(req->traceId, "ddr", curTick());
    queue_.push_back({req, curTick()});
    if (!issueEvent_.scheduled())
        eventq().schedule(&issueEvent_, curTick());
}

void
Ddr3Controller::tryIssue()
{
    const DramTiming &t = timing;
    while (!queue_.empty()) {
        auto [req, submitted] = queue_.pop_front();
        ++inFlight_;

        // Command reaches the bank scheduler after the controller's
        // frontend pipeline, and never during an all-bank refresh.
        Tick start = std::max({curTick() + params_.frontendLatency,
                               refreshUntil_});
        Bank &bank = banks_[bankOf(req->addr)];
        start = std::max(start, bank.readyAt);

        std::uint64_t row = rowOf(req->addr);
        if (bank.open && bank.row == row) {
            ++stats_.rowHits;
        } else {
            ++stats_.rowMisses;
            if (bank.open)
                start += t.tRP; // close the loser row first
            start += t.tRCD;
            bank.open = true;
            bank.row = row;
        }

        // Column access latency, then burst(s) on the shared bus.
        Tick col = req->isWrite ? (t.tCL > t.tCK ? t.tCL - t.tCK
                                                 : t.tCL)
                                : t.tCL;
        unsigned bursts =
            unsigned((req->size + t.burstBytes() - 1) / t.burstBytes());
        Tick bus_ready = busFreeAt_;
        if (anyTransfer_ && req->isWrite != lastWasWrite_)
            bus_ready += params_.busTurnaround;
        Tick data_start = std::max(start + col, bus_ready);
        Tick extra = req->isWrite ? device_.extraWriteLatency()
                                  : device_.extraReadLatency();
        Tick data_end =
            data_start + Tick(bursts) * t.burstTime() + extra;
        busFreeAt_ = data_end;
        lastWasWrite_ = req->isWrite;
        anyTransfer_ = true;
        bank.readyAt = data_end + (req->isWrite ? t.tWR : 0);

        Tick done_at = data_end + params_.frontendLatency;
        MemRequestPtr r = req;
        Tick sub = submitted;
        OneShotEvent::schedule(eventq(), done_at,
                               [this, r, sub] { complete(r, sub); });
    }
}

void
Ddr3Controller::complete(const MemRequestPtr &req, Tick submitted)
{
    --inFlight_;
    if (req->isWrite) {
        if (req->masked)
            device_.image().writeMasked(req->addr, req->data,
                                        req->enables);
        else
            device_.image().write(req->addr, req->size,
                                  req->data.data());
        device_.noteWrite(req->addr, req->size);
        ++stats_.writes;
    } else {
        // ECC check-and-correct before the data leaves the DIMM, the
        // demand-read half of the scrub story: single-bit faults are
        // repaired in place, multi-bit faults poison the response.
        EccScan scan = device_.image().verify(req->addr, req->size);
        stats_.eccCorrected += scan.corrected;
        stats_.eccUncorrectable += scan.uncorrectable;
        req->poisoned = scan.uncorrectable != 0;
        device_.image().read(req->addr, req->size, req->data.data());
        device_.noteRead(req->size);
        ++stats_.reads;
    }
    req->completedAt = curTick();
    stats_.accessLatency.sample(ticksToNs(curTick() - submitted));
    if (req->traceId != noTraceId)
        span::closeIfOpen(req->traceId, "ddr", curTick());
    if (req->onDone)
        req->onDone(*req);
}

void
Ddr3Controller::checkpointSave(ckpt::Section &out) const
{
    if (!queue_.empty() || inFlight_ != 0
        || issueEvent_.scheduled())
        panic("%s: checkpoint with requests outstanding",
              name().c_str());
    out.putU32(std::uint32_t(banks_.size()));
    for (const Bank &b : banks_) {
        out.putU8(b.open ? 1 : 0);
        out.putU64(b.row);
        out.putU64(b.readyAt);
    }
    out.putU64(busFreeAt_);
    out.putU8(lastWasWrite_ ? 1 : 0);
    out.putU8(anyTransfer_ ? 1 : 0);
    out.putU64(refreshUntil_);
    out.putU8(refreshEvent_.scheduled() ? 1 : 0);
    out.putU64(refreshEvent_.scheduled() ? refreshEvent_.when() : 0);
}

void
Ddr3Controller::checkpointDrain()
{
    if (!queue_.empty() || inFlight_ != 0
        || issueEvent_.scheduled())
        panic("%s: drain with requests outstanding",
              name().c_str());
    if (refreshEvent_.scheduled())
        eventq().deschedule(&refreshEvent_);
}

void
Ddr3Controller::checkpointRestore(ckpt::Section &in)
{
    ct_assert(!issueEvent_.scheduled()
              && !refreshEvent_.scheduled());
    if (in.getU32() != banks_.size())
        throw ckpt::Error("DDR3 bank count mismatch");
    for (Bank &b : banks_) {
        b.open = in.getU8() != 0;
        b.row = in.getU64();
        b.readyAt = in.getU64();
    }
    busFreeAt_ = in.getU64();
    lastWasWrite_ = in.getU8() != 0;
    anyTransfer_ = in.getU8() != 0;
    refreshUntil_ = in.getU64();
    bool refreshArmed = in.getU8() != 0;
    Tick refreshAt = in.getU64();
    if (refreshArmed)
        eventq().schedule(&refreshEvent_, refreshAt);
}

void
Ddr3Controller::refreshTick()
{
    const DramTiming &t = timing;
    // All-bank refresh: banks close and the device is busy for tRFC.
    for (Bank &b : banks_) {
        b.open = false;
        b.readyAt = std::max(b.readyAt, curTick() + t.tRFC);
    }
    refreshUntil_ = std::max(busFreeAt_, curTick()) + t.tRFC;
    ++stats_.refreshes;
    eventq().schedule(&refreshEvent_, curTick() + t.tREFI);
}

} // namespace contutto::mem
