#include "cpu/host_port.hh"

#include <cstring>

#include "sim/span.hh"

namespace contutto::cpu
{

using namespace dmi;

HostMemPort::HostMemPort(const std::string &name, EventQueue &eq,
                         const ClockDomain &domain,
                         stats::StatGroup *parent, HostLink &link)
    : SimObject(name, eq, domain, parent), link_(link),
      stats_{{this, "reads", "read commands issued"},
             {this, "writes", "write commands issued"},
             {this, "rmws", "partial writes issued"},
             {this, "flushes", "flush commands issued"},
             {this, "inlineOps", "in-line accel commands issued"},
             {this, "tagStalls", "issues stalled on tag exhaustion"},
             {this, "poisonedResponses",
              "responses carrying the ECC poison mark"},
             {this, "readLatency", "issue-to-data latency (ns)"},
             {this, "writeLatency", "issue-to-done latency (ns)"}}
{
    link_.onFrame = [this](const UpFrame &f) { frameArrived(f); };
}

void
HostMemPort::read(Addr addr, Callback cb)
{
    ++stats_.reads;
    MemCommand cmd;
    cmd.type = CmdType::read128;
    cmd.addr = addr;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::write(Addr addr, const CacheLine &data, Callback cb)
{
    ++stats_.writes;
    MemCommand cmd;
    cmd.type = CmdType::write128;
    cmd.addr = addr;
    cmd.data = data;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::partialWrite(Addr addr, const CacheLine &data,
                          const ByteEnable &enables, Callback cb)
{
    ++stats_.rmws;
    MemCommand cmd;
    cmd.type = CmdType::partialWrite;
    cmd.addr = addr;
    cmd.data = data;
    cmd.enables = enables;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::flush(Callback cb)
{
    ++stats_.flushes;
    MemCommand cmd;
    cmd.type = CmdType::flush;
    cmd.addr = 0;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::minStore(Addr addr, const CacheLine &data, Callback cb)
{
    ++stats_.inlineOps;
    MemCommand cmd;
    cmd.type = CmdType::minStore;
    cmd.addr = addr;
    cmd.data = data;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::maxStore(Addr addr, const CacheLine &data, Callback cb)
{
    ++stats_.inlineOps;
    MemCommand cmd;
    cmd.type = CmdType::maxStore;
    cmd.addr = addr;
    cmd.data = data;
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::condSwap(Addr addr, std::uint64_t expected,
                      std::uint64_t desired, Callback cb)
{
    ++stats_.inlineOps;
    MemCommand cmd;
    cmd.type = CmdType::condSwap;
    cmd.addr = addr;
    std::memcpy(cmd.data.data(), &expected, 8);
    std::memcpy(cmd.data.data() + 8, &desired, 8);
    issue(std::move(cmd), std::move(cb));
}

void
HostMemPort::issue(MemCommand cmd, Callback cb, bool queuedRetry)
{
    // The trace starts here — the single funnel every operation
    // passes through. Re-issues of tag-stalled ops keep the id they
    // were assigned on first entry (queuedRetry avoids skewing the
    // 1-in-N sampling counter for unsampled ops).
    if (!queuedRetry && span::enabled()) {
        cmd.traceId = span::acquireId();
        if (cmd.traceId != noTraceId)
            span::open(cmd.traceId, "host", curTick());
    }

    // Find a free tag; if none, the processor has cycled through all
    // 32 and must wait for a done (paper §2.3).
    int free_tag = -1;
    for (unsigned t = 0; t < numTags; ++t) {
        if (!tags_[t].busy) {
            free_tag = int(t);
            break;
        }
    }
    if (free_tag < 0) {
        ++stats_.tagStalls;
        if (cmd.traceId != noTraceId)
            span::open(cmd.traceId, "host.tagwait", curTick());
        pending_.push_back(PendingOp{std::move(cmd), std::move(cb)});
        return;
    }

    if (cmd.traceId != noTraceId)
        span::closeIfOpen(cmd.traceId, "host.tagwait", curTick());

    cmd.tag = std::uint8_t(free_tag);
    TagState &ts = tags_[free_tag];
    ts.busy = true;
    ts.type = cmd.type;
    ts.cb = std::move(cb);
    ts.result = HostOpResult{};
    ts.result.issuedAt = curTick();
    ts.result.traceId = cmd.traceId;
    ++inFlight_;

    for (auto &f : encodeCommand(cmd))
        link_.sendFrame(f);
}

void
HostMemPort::abortInFlight()
{
    assembler_.reset();
    // Collect callbacks first: they may issue new operations.
    std::vector<Callback> callbacks;
    for (TagState &ts : tags_) {
        if (!ts.busy)
            continue;
        if (ts.result.traceId != noTraceId)
            span::closeAll(ts.result.traceId, curTick());
        if (ts.cb)
            callbacks.push_back(std::move(ts.cb));
        ts = TagState{};
    }
    inFlight_ = 0;
    while (!pending_.empty()) {
        PendingOp op = pending_.pop_front();
        if (op.cmd.traceId != noTraceId)
            span::closeAll(op.cmd.traceId, curTick());
        if (op.cb)
            callbacks.push_back(std::move(op.cb));
    }

    HostOpResult aborted;
    aborted.failed = true;
    for (Callback &cb : callbacks)
        cb(aborted);
}

void
HostMemPort::tryIssueQueued()
{
    while (!pending_.empty() && inFlight_ < numTags) {
        PendingOp op = pending_.pop_front();
        issue(std::move(op.cmd), std::move(op.cb), true);
    }
}

void
HostMemPort::frameArrived(const UpFrame &frame)
{
    for (auto &resp : assembler_.feed(frame))
        responseArrived(resp);
}

void
HostMemPort::responseArrived(const MemResponse &resp)
{
    TagState &ts = tags_[resp.tag];
    if (!ts.busy) {
        warn("host: response for idle tag %u", resp.tag);
        return;
    }
    // Responses are matched by tag; the frame-level trace id would
    // say the same thing, so the tag's stored id is authoritative.
    TraceId tid = ts.result.traceId;
    if (tid != noTraceId)
        span::closeIfOpen(tid, "dmi.up", curTick());
    switch (resp.type) {
      case RespType::readData:
        ts.result.data = resp.data;
        ts.result.dataAt = curTick();
        if (resp.poisoned) {
            ts.result.poisoned = true;
            ++stats_.poisonedResponses;
        }
        break;
      case RespType::swapOld:
        ts.result.data = resp.data;
        ts.result.swapSucceeded = resp.swapSucceeded;
        ts.result.dataAt = curTick();
        break;
      case RespType::done: {
        ts.result.doneAt = curTick();
        if (tid != noTraceId)
            span::close(tid, "host", curTick());
        if (ts.type == CmdType::read128) {
            stats_.readLatency.sample(
                ticksToNs(ts.result.dataAt - ts.result.issuedAt));
        } else {
            stats_.writeLatency.sample(
                ticksToNs(ts.result.doneAt - ts.result.issuedAt));
        }
        Callback cb = std::move(ts.cb);
        HostOpResult result = ts.result;
        ts = TagState{};
        ct_assert(inFlight_ > 0);
        --inFlight_;
        tryIssueQueued();
        if (cb)
            cb(result);
        break;
      }
    }
}

} // namespace contutto::cpu
