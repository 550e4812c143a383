#include "centaur/centaur.hh"

#include <algorithm>

#include "sim/span.hh"

namespace contutto::centaur
{

using namespace dmi;
using namespace mem;

CentaurModel::Config
CentaurModel::optimized()
{
    Config c;
    c.configName = "optimized";
    return c;
}

CentaurModel::Config
CentaurModel::balanced()
{
    Config c;
    c.configName = "balanced";
    c.extraLatency = nanoseconds(4);
    return c;
}

CentaurModel::Config
CentaurModel::conservative()
{
    Config c;
    c.configName = "conservative";
    c.cacheEnabled = false;
    c.prefetchEnabled = false;
    c.extraLatency = nanoseconds(12);
    return c;
}

CentaurModel::Config
CentaurModel::slowest()
{
    Config c;
    c.configName = "slowest";
    c.cacheEnabled = false;
    c.prefetchEnabled = false;
    c.extraLatency = nanoseconds(145);
    return c;
}

CentaurModel::Config
CentaurModel::table3Baseline()
{
    // The Table 3 system measured its most latency-optimized Centaur
    // at 97 ns — a slightly slower setup than the Table 2 system's
    // 79 ns configuration.
    Config c;
    c.configName = "table3-baseline";
    c.extraLatency = nanoseconds(18);
    return c;
}

CentaurModel::Config
CentaurModel::contuttoMatched()
{
    Config c;
    c.configName = "contutto-matched";
    c.cacheEnabled = false;
    c.prefetchEnabled = false;
    c.extraLatency = nanoseconds(189);
    return c;
}

CentaurModel::CentaurModel(const std::string &name, EventQueue &eq,
                           const ClockDomain &domain,
                           stats::StatGroup *parent,
                           const Config &config, BufferLink &link,
                           std::vector<Ddr3Controller *> ports)
    : SimObject(name, eq, domain, parent), config_(config),
      link_(link), ports_(std::move(ports)),
      interleave_{unsigned(ports_.size()), cacheLineSize},
      cache_(config.cacheCapacity, cacheLineSize, config.cacheWays),
      stats_{{this, "reads", "read commands served"},
             {this, "writes", "write commands served"},
             {this, "rmws", "read-modify-write commands served"},
             {this, "flushes", "flush (persist fence) commands"},
             {this, "cacheHits", "buffer cache hits"},
             {this, "cacheMisses", "buffer cache misses"},
             {this, "prefetches", "prefetch fills issued"},
             {this, "unsupportedCommands",
              "commands the ASIC has no engine for"},
             {this, "cmdTimeouts", "command watchdog expirations"},
             {this, "cmdRetries", "DDR accesses re-issued"},
             {this, "tagsReclaimed", "stuck tags forcibly freed"},
             {this, "droppedCompletions",
              "DDR completions lost to injected stalls"},
             {this, "poisonedReads",
              "reads returned poisoned (uncorrectable ECC)"}}
{
    ct_assert(!ports_.empty());
    link_.onFrame = [this](const DownFrame &f) { frameArrived(f); };
    for (unsigned t = 0; t < numTags; ++t) {
        watchdogs_[t].centaur = this;
        watchdogs_[t].tag = std::uint8_t(t);
    }
}

CentaurModel::~CentaurModel()
{
    for (Watchdog &w : watchdogs_)
        if (w.scheduled())
            eventq().deschedule(&w);
}

Ddr3Controller &
CentaurModel::portFor(Addr addr)
{
    return *ports_[interleave_.portOf(addr)];
}

void
CentaurModel::frameArrived(const DownFrame &frame)
{
    if (auto cmd = assembler_.feed(frame)) {
        ++activeCommands_;
        // Command parse/dispatch pipeline plus the knob penalty.
        Tick when = curTick() + config_.pipelineLatency
            + config_.extraLatency;
        MemCommand c = *cmd;
        OneShotEvent::schedule(eventq(), when,
                               [this, c] { execute(c); });
    }
}

void
CentaurModel::execute(const MemCommand &cmd, bool redispatch)
{
    // The command cleared the parse/dispatch pipeline: close the
    // downstream-wire span, open the buffer-residency one (covering
    // any same-line deferral below). Deferred commands re-executed
    // after the blocking write drains keep their existing spans.
    if (!redispatch && cmd.traceId != noTraceId) {
        span::closeIfOpen(cmd.traceId, "dmi.down", curTick());
        span::open(cmd.traceId, "centaur", curTick());
    }

    // Same-line ordering: reads and writes behind an outstanding
    // write to the same line wait for it.
    auto it = pendingWrites_.find(cmd.addr);
    if (it != pendingWrites_.end() && it->second > 0
        && cmd.type != CmdType::flush) {
        deferred_.push_back(cmd);
        return;
    }
    switch (cmd.type) {
      case CmdType::read128:
        serveRead(cmd);
        break;
      case CmdType::write128:
      case CmdType::partialWrite:
        serveWrite(cmd);
        break;
      case CmdType::flush:
        // The fence must mean the same thing on the baseline as on
        // ConTutto, or the pmem durability story is apples to
        // oranges: done only after older writes reach DDR.
        serveFlush(cmd);
        break;
      default:
        // The in-line accelerated ops exist only in ConTutto's FPGA
        // logic (paper §4.3).
        ++stats_.unsupportedCommands;
        warn("Centaur: unsupported command type %d; completing as "
             "no-op", int(cmd.type));
        sendDone(cmd.tag, cmd.traceId);
        break;
    }
}

bool
CentaurModel::consumeStall()
{
    if (stallBudget_ == 0)
        return false;
    --stallBudget_;
    ++stats_.droppedCompletions;
    return true;
}

std::uint32_t
CentaurModel::armTagOp(std::uint8_t tag)
{
    TagOp &op = tagOps_[tag];
    op.seq = ++seqCounter_;
    if (config_.cmdTimeout != 0) {
        // A re-arm takes a fresh place among same-tick events, as a
        // new watchdog would.
        Watchdog &w = watchdogs_[tag];
        if (w.scheduled())
            eventq().deschedule(&w);
        eventq().schedule(&w, curTick()
                                  + (config_.cmdTimeout << op.retries));
    }
    return op.seq;
}

void
CentaurModel::retireTagOp(std::uint8_t tag)
{
    tagOps_[tag] = TagOp{};
    if (watchdogs_[tag].scheduled())
        eventq().deschedule(&watchdogs_[tag]);
}

void
CentaurModel::tagTimeout(std::uint8_t tag)
{
    TagOp &op = tagOps_[tag];
    ct_assert(op.active);
    ++stats_.cmdTimeouts;
    if (op.retries >= config_.maxCmdRetries) {
        reclaimTag(tag);
        return;
    }
    ++op.retries;
    ++stats_.cmdRetries;
    if (op.cmd.type == CmdType::read128)
        issueReadAccess(tag);
    else
        issueWriteAccess(tag);
}

void
CentaurModel::reclaimTag(std::uint8_t tag)
{
    TagOp &op = tagOps_[tag];
    ++stats_.tagsReclaimed;
    warn("Centaur: reclaiming tag %u after %u retries", unsigned(tag),
         op.retries);
    if (errorLog_)
        errorLog_->record(curTick(), name(),
                          firmware::Severity::unrecoverable,
                          "command tag " + std::to_string(tag)
                              + " reclaimed after retry exhaustion");
    MemCommand cmd = op.cmd;
    retireTagOp(tag);
    if (cmd.type == CmdType::read128) {
        // The host is owed data; poison it rather than hang the tag.
        ++stats_.poisonedReads;
        MemResponse resp;
        resp.type = RespType::readData;
        resp.tag = tag;
        resp.poisoned = true;
        resp.traceId = cmd.traceId;
        for (auto &f : encodeResponse(resp))
            link_.sendFrame(f);
        sendDone(tag, cmd.traceId);
    } else {
        sendDone(tag, cmd.traceId);
        releaseWrite(cmd.addr);
        noteWriteDrained(tag);
    }
}

void
CentaurModel::releaseWrite(Addr line)
{
    auto pit = pendingWrites_.find(line);
    ct_assert(pit != pendingWrites_.end() && pit->second > 0);
    if (--pit->second == 0)
        pendingWrites_.erase(pit);
    retryDeferred(line);
}

void
CentaurModel::serveRead(const MemCommand &cmd)
{
    ++stats_.reads;
    if (config_.cacheEnabled && cache_.lookup(cmd.addr)) {
        ++stats_.cacheHits;
        MemCommand c = cmd;
        OneShotEvent::schedule(eventq(),
                               curTick() + config_.cacheHitLatency,
                               [this, c] {
                                   // Even cache hits re-verify the
                                   // backing line: the tag-only cache
                                   // serves data from the image.
                                   EccScan scan =
                                       portFor(c.addr).device().image()
                                           .verify(localAddr(c.addr),
                                                   cacheLineSize);
                                   finishRead(c,
                                              scan.uncorrectable != 0);
                               });
        return;
    }
    if (config_.cacheEnabled)
        ++stats_.cacheMisses;

    TagOp &op = tagOps_[cmd.tag];
    op.active = true;
    op.retries = 0;
    op.cmd = cmd;
    issueReadAccess(cmd.tag);
}

void
CentaurModel::issueReadAccess(std::uint8_t tag)
{
    std::uint32_t seq = armTagOp(tag);
    MemCommand c = tagOps_[tag].cmd;
    auto req = std::make_shared<MemRequest>();
    req->addr = localAddr(c.addr);
    req->isWrite = false;
    req->traceId = c.traceId;
    req->onDone = [this, c, tag, seq](MemRequest &r) {
        TagOp &op = tagOps_[tag];
        if (!op.active || op.seq != seq)
            return; // superseded by a retry or reclaim
        if (consumeStall())
            return;
        retireTagOp(tag);
        if (config_.cacheEnabled) {
            // Write-through cache: fills are never dirty.
            cache_.fill(c.addr);
            if (config_.prefetchEnabled) {
                Addr next = c.addr + cacheLineSize;
                if (!cache_.probe(next)) {
                    ++stats_.prefetches;
                    auto pf = std::make_shared<MemRequest>();
                    pf->addr = localAddr(next);
                    pf->isWrite = false;
                    pf->onDone = [this, next](MemRequest &) {
                        cache_.fill(next);
                    };
                    if (portFor(next).canAccept())
                        portFor(next).submit(pf);
                }
            }
        }
        finishRead(c, r.poisoned);
    };
    portFor(c.addr).submit(req);
}

void
CentaurModel::finishRead(const MemCommand &cmd, bool poisoned)
{
    // Serve the data functionally from the owning device image (the
    // cache is tag-only; contents are always current because writes
    // are write-through).
    if (poisoned) {
        ++stats_.poisonedReads;
        if (errorLog_)
            errorLog_->record(curTick(), name(),
                              firmware::Severity::recoverable,
                              "uncorrectable ECC on read tag "
                                  + std::to_string(cmd.tag));
    }
    MemResponse resp;
    resp.type = RespType::readData;
    resp.tag = cmd.tag;
    resp.poisoned = poisoned;
    resp.traceId = cmd.traceId;
    portFor(cmd.addr).device().image().read(localAddr(cmd.addr),
                                            cacheLineSize,
                                            resp.data.data());
    for (auto &f : encodeResponse(resp))
        link_.sendFrame(f);
    sendDone(cmd.tag, cmd.traceId);
}

void
CentaurModel::serveWrite(const MemCommand &cmd)
{
    if (cmd.type == CmdType::partialWrite)
        ++stats_.rmws;
    else
        ++stats_.writes;
    ++pendingWrites_[cmd.addr];

    if (config_.cacheEnabled) {
        // Write-through: update the tag state, then write memory.
        if (cache_.probe(cmd.addr))
            cache_.writeHit(cmd.addr);
    }

    TagOp &op = tagOps_[cmd.tag];
    op.active = true;
    op.retries = 0;
    op.cmd = cmd;
    issueWriteAccess(cmd.tag);
}

void
CentaurModel::issueWriteAccess(std::uint8_t tag)
{
    std::uint32_t seq = armTagOp(tag);
    const MemCommand &c = tagOps_[tag].cmd;
    auto req = std::make_shared<MemRequest>();
    req->addr = localAddr(c.addr);
    req->isWrite = true;
    req->data = c.data;
    req->traceId = c.traceId;
    if (c.type == CmdType::partialWrite) {
        req->masked = true;
        req->enables = c.enables;
    }
    Addr line = c.addr;
    TraceId tid = c.traceId;
    req->onDone = [this, tag, line, seq, tid](MemRequest &) {
        TagOp &op = tagOps_[tag];
        if (!op.active || op.seq != seq)
            return; // superseded by a retry or reclaim
        if (consumeStall())
            return;
        retireTagOp(tag);
        sendDone(tag, tid);
        releaseWrite(line);
        noteWriteDrained(tag);
    };
    portFor(c.addr).submit(req);
}

void
CentaurModel::serveFlush(const MemCommand &cmd)
{
    ++stats_.flushes;
    FlushOp op;
    op.tag = cmd.tag;
    op.traceId = cmd.traceId;
    // Older writes: every write-class command with a live watchdog
    // plus the ones parked in the same-line ordering queue.
    for (unsigned t = 0; t < numTags; ++t) {
        const TagOp &other = tagOps_[t];
        if (other.active && other.cmd.type != CmdType::read128)
            op.waitingOn.push_back(std::uint8_t(t));
    }
    for (const MemCommand &d : deferred_)
        if (d.type != CmdType::read128 && d.type != CmdType::flush)
            op.waitingOn.push_back(d.tag);
    if (op.waitingOn.empty())
        sendDone(cmd.tag, cmd.traceId);
    else
        pendingFlushes_.push_back(std::move(op));
}

void
CentaurModel::noteWriteDrained(std::uint8_t tag)
{
    for (auto it = pendingFlushes_.begin();
         it != pendingFlushes_.end();) {
        auto &waiting = it->waitingOn;
        waiting.erase(std::remove(waiting.begin(), waiting.end(),
                                  tag),
                      waiting.end());
        if (waiting.empty()) {
            sendDone(it->tag, it->traceId);
            it = pendingFlushes_.erase(it);
        } else {
            ++it;
        }
    }
}

void
CentaurModel::retryDeferred(Addr addr)
{
    // Re-execute the oldest deferred command for this line; a write
    // re-registers in pendingWrites_, keeping younger same-line
    // commands deferred until it finishes in turn.
    for (auto it = deferred_.begin(); it != deferred_.end(); ++it) {
        if (it->addr == addr) {
            MemCommand cmd = *it;
            deferred_.erase(it);
            execute(cmd, true);
            return;
        }
    }
}

void
CentaurModel::sendDone(std::uint8_t tag, TraceId traceId)
{
    if (traceId != noTraceId)
        span::closeIfOpen(traceId, "centaur", curTick());
    MemResponse resp;
    resp.type = RespType::done;
    resp.tag = tag;
    resp.traceId = traceId;
    for (auto &f : encodeResponse(resp))
        link_.sendFrame(f);
    ct_assert(activeCommands_ > 0);
    --activeCommands_;
}

void
CentaurModel::checkpointSave(ckpt::Section &out) const
{
    if (!quiescent() || !deferred_.empty()
        || !pendingFlushes_.empty() || !pendingWrites_.empty())
        panic("%s: checkpoint while not quiescent", name().c_str());
    cache_.checkpointSave(out);
    out.putU32(seqCounter_);
    out.putU32(stallBudget_);
    out.putU32(std::uint32_t(tagOps_.size()));
    for (const TagOp &op : tagOps_) {
        ct_assert(!op.active);
        out.putU32(op.seq);
    }
}

void
CentaurModel::checkpointRestore(ckpt::Section &in)
{
    if (!quiescent() || !deferred_.empty()
        || !pendingFlushes_.empty() || !pendingWrites_.empty())
        panic("%s: restore while not quiescent", name().c_str());
    cache_.checkpointRestore(in);
    seqCounter_ = in.getU32();
    stallBudget_ = in.getU32();
    if (in.getU32() != tagOps_.size())
        throw ckpt::Error("Centaur tag count mismatch");
    for (TagOp &op : tagOps_)
        op.seq = in.getU32();
}

} // namespace contutto::centaur
