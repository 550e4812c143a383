#include "centaur/centaur.hh"

#include "sim/span.hh"

namespace contutto::centaur
{

using namespace dmi;
using namespace mem;

namespace
{

/** Command-processing pipeline latency (ASIC, 2 GHz). */
constexpr Tick pipelineLatency = nanoseconds(8);
/** Cache hit service latency (eDRAM). */
constexpr Tick cacheHitLatency = nanoseconds(10);
/** The 16 MB eDRAM cache (paper §2.1), 8 ways. */
constexpr std::uint64_t cacheCapacity = 16 * MiB;
constexpr unsigned cacheWays = 8;

} // namespace

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

const std::array<CentaurModel::Config, 4> &
CentaurModel::table2Knobs()
{
    static const std::array<Config, 4> knobs = {
        optimized(), balanced(), conservative(), slowest()};
    return knobs;
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
      cache_(cacheCapacity, cacheLineSize, cacheWays),
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
              "reads returned poisoned (uncorrectable ECC)"}},
      tags_(*this, *this,
            {stats_.cmdTimeouts, stats_.cmdRetries, stats_.tagsReclaimed,
             stats_.droppedCompletions})
{
    ct_assert(!ports_.empty());
    link_.onFrame = [this](const DownFrame &f) { frameArrived(f); };
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
        Tick when = curTick() + pipelineLatency
            + config_.extraLatency;
        MemCommand c = *cmd;
        OneShotEvent::schedule(eventq(), when,
                               [this, c] { dispatch(c); });
    }
}

void
CentaurModel::dispatch(const MemCommand &cmd)
{
    // The command cleared the parse/dispatch pipeline: close the
    // downstream-wire span, open the buffer-residency one (covering
    // any same-line wait below).
    if (cmd.traceId != noTraceId) {
        span::closeIfOpen(cmd.traceId, "dmi.down", curTick());
        span::open(cmd.traceId, "centaur", curTick());
    }

    // Same-line ordering: a write holds its line until it reaches
    // DDR, so reads and writes behind it wait (reads must not pass
    // writes via the cache path).
    if (tags_.admit(cmd, hasWriteData(cmd.type)))
        execute(cmd, 0);
}

void
CentaurModel::execute(const MemCommand &cmd, unsigned)
{
    cmds_[cmd.tag] = cmd;
    switch (cmd.type) {
      case CmdType::read128:
        serveRead(cmd.tag);
        break;
      case CmdType::write128:
      case CmdType::partialWrite:
        serveWrite(cmd.tag);
        break;
      case CmdType::flush:
        // The fence must mean the same thing on the baseline as on
        // ConTutto, or the pmem durability story is apples to
        // oranges: done only after older writes reach DDR.
        ++stats_.flushes;
        if (tags_.fence(cmd.tag))
            sendDone(cmd.tag);
        break;
      default:
        // The in-line accelerated ops exist only in ConTutto's FPGA
        // logic (paper §4.3).
        ++stats_.unsupportedCommands;
        warn("Centaur: unsupported command type %d; completing as "
             "no-op", int(cmd.type));
        sendDone(cmd.tag);
        break;
    }
}

void
CentaurModel::reissueAccess(unsigned tag)
{
    if (cmds_[tag].type == CmdType::read128)
        issueReadAccess(std::uint8_t(tag));
    else
        issueWriteAccess(std::uint8_t(tag));
}

void
CentaurModel::reclaimTag(unsigned tag)
{
    const MemCommand &cmd = cmds_[tag];
    if (cmd.type == CmdType::read128) {
        // The host is owed data; poison it rather than hang the tag.
        ++stats_.poisonedReads;
        MemResponse resp;
        resp.type = RespType::readData;
        resp.tag = cmd.tag;
        resp.poisoned = true;
        resp.traceId = cmd.traceId;
        for (auto &f : encodeResponse(resp))
            link_.sendFrame(f);
    }
    sendDone(std::uint8_t(tag));
}

void
CentaurModel::serveRead(std::uint8_t tag)
{
    ++stats_.reads;
    if (config_.cacheEnabled && cache_.lookup(cmds_[tag].addr)) {
        ++stats_.cacheHits;
        OneShotEvent::schedule(eventq(),
                               curTick() + cacheHitLatency,
                               [this, tag] {
                                   // Even cache hits re-verify the
                                   // backing line: the tag-only cache
                                   // serves data from the image.
                                   Addr addr = cmds_[tag].addr;
                                   EccScan scan =
                                       portFor(addr).device().image()
                                           .verify(localAddr(addr),
                                                   cacheLineSize);
                                   finishRead(tag,
                                              scan.uncorrectable != 0);
                               });
        return;
    }
    if (config_.cacheEnabled)
        ++stats_.cacheMisses;
    issueReadAccess(tag);
}

void
CentaurModel::issueReadAccess(std::uint8_t tag)
{
    std::uint32_t seq = tags_.arm(tag);
    const MemCommand &c = cmds_[tag];
    auto req = std::make_shared<MemRequest>();
    req->addr = localAddr(c.addr);
    req->isWrite = false;
    req->traceId = c.traceId;
    req->onDone = [this, tag, seq](MemRequest &r) {
        if (!tags_.accept(tag, seq))
            return;
        if (config_.cacheEnabled) {
            // Write-through cache: fills are never dirty.
            Addr addr = cmds_[tag].addr;
            cache_.fill(addr);
            if (config_.prefetchEnabled) {
                Addr next = addr + cacheLineSize;
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
        finishRead(tag, r.poisoned);
    };
    portFor(c.addr).submit(req);
}

void
CentaurModel::finishRead(std::uint8_t tag, bool poisoned)
{
    // Serve the data functionally from the owning device image (the
    // cache is tag-only; contents are always current because writes
    // are write-through).
    const MemCommand &cmd = cmds_[tag];
    if (poisoned) {
        ++stats_.poisonedReads;
        tags_.log(firmware::Severity::recoverable,
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
    sendDone(tag);
}

void
CentaurModel::serveWrite(std::uint8_t tag)
{
    const MemCommand &cmd = cmds_[tag];
    if (cmd.type == CmdType::partialWrite)
        ++stats_.rmws;
    else
        ++stats_.writes;

    if (config_.cacheEnabled) {
        // Write-through: update the tag state, then write memory.
        if (cache_.probe(cmd.addr))
            cache_.writeHit(cmd.addr);
    }
    issueWriteAccess(tag);
}

void
CentaurModel::issueWriteAccess(std::uint8_t tag)
{
    std::uint32_t seq = tags_.arm(tag);
    const MemCommand &c = cmds_[tag];
    auto req = std::make_shared<MemRequest>();
    req->addr = localAddr(c.addr);
    req->isWrite = true;
    req->data = c.data;
    req->traceId = c.traceId;
    if (c.type == CmdType::partialWrite) {
        req->masked = true;
        req->enables = c.enables;
    }
    req->onDone = [this, tag, seq](MemRequest &) {
        if (tags_.accept(tag, seq))
            sendDone(tag);
    };
    portFor(c.addr).submit(req);
}

void
CentaurModel::sendDone(std::uint8_t tag)
{
    TraceId traceId = cmds_[tag].traceId;
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
    tags_.retire(tag);
}

void
CentaurModel::checkpointSave(ckpt::Section &out) const
{
    if (!quiescent())
        panic("%s: checkpoint while not quiescent", name().c_str());
    cache_.checkpointSave(out);
    tags_.checkpointSave(out);
}

void
CentaurModel::checkpointRestore(ckpt::Section &in)
{
    if (!quiescent())
        panic("%s: restore while not quiescent", name().c_str());
    cache_.checkpointRestore(in);
    tags_.checkpointRestore(in);
}

} // namespace contutto::centaur
