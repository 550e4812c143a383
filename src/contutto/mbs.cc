#include "contutto/mbs.hh"

#include "sim/span.hh"

#include <algorithm>
#include <cstring>

namespace contutto::fpga
{

using namespace dmi;
using namespace mem;

namespace
{

/** Frame parse + command dispatch pipeline, cycles. */
constexpr unsigned decodeCycles = 3;
/** Read-return handler pipeline, cycles. */
constexpr unsigned readReturnCycles = 2;
/** Upstream arbitration pipeline, cycles. */
constexpr unsigned respondCycles = 1;
/** RMW ALU latency, cycles. */
constexpr unsigned aluCycles = 1;
/** Upstream frames the arbiter can launch per cycle. */
constexpr unsigned upstreamFramesPerCycle = 2;

std::int64_t
laneAt(const CacheLine &line, unsigned lane)
{
    std::int64_t v = 0;
    std::memcpy(&v, line.data() + lane * 8, 8);
    return v;
}

void
setLane(CacheLine &line, unsigned lane, std::int64_t v)
{
    std::memcpy(line.data() + lane * 8, &v, 8);
}

} // namespace

Mbs::Mbs(const std::string &name, EventQueue &eq,
         const ClockDomain &domain, stats::StatGroup *parent,
         const Params &params, BufferLink &link, bus::AvalonBus &bus)
    : SimObject(name, eq, domain, parent), params_(params),
      link_(link), bus_(bus),
      writeArbEvent_{
          EventFunctionWrapper([this] { writeArbPump(0); },
                               name + ".writeArb0"),
          EventFunctionWrapper([this] { writeArbPump(1); },
                               name + ".writeArb1")},
      upPumpEvent_([this] { upstreamPump(); }, name + ".upPump"),
      stats_{{this, "reads", "read commands executed"},
             {this, "writes", "write commands executed"},
             {this, "rmws", "partial (RMW) writes executed"},
             {this, "flushes", "flush commands executed"},
             {this, "inlineOps", "in-line accelerated ops executed"},
             {this, "writeArbGrants", "write-port arbiter grants"},
             {this, "addrOrderStalls",
              "commands deferred for same-line ordering"},
             {this, "upstreamFrames", "frames sent upstream"},
             {this, "doneFramesPacked",
              "done frames carrying multiple tags"},
             {this, "cmdTimeouts", "command watchdog expirations"},
             {this, "cmdRetries", "memory accesses re-issued"},
             {this, "tagsReclaimed", "stuck tags forcibly freed"},
             {this, "droppedCompletions",
              "memory completions lost to injected stalls"},
             {this, "poisonedResponses",
              "read responses sent upstream poisoned"},
             {this, "engineOccupancy",
              "active command engines at dispatch"}},
      tags_(*this, *this,
            {stats_.cmdTimeouts, stats_.cmdRetries, stats_.tagsReclaimed,
             stats_.droppedCompletions},
            params.cmdTimeout)
{
    ct_assert(params_.knobPosition <= 7);
    readPorts_[0] = &bus_.createPort(name + ".rd0");
    readPorts_[1] = &bus_.createPort(name + ".rd1");
    writePorts_[0] = &bus_.createPort(name + ".wr0");
    writePorts_[1] = &bus_.createPort(name + ".wr1");
    link_.onFrame = [this](const DownFrame &f) { frameArrived(f); };
}

Mbs::~Mbs()
{
    for (auto &ev : writeArbEvent_)
        if (ev.scheduled())
            eventq().deschedule(&ev);
    if (upPumpEvent_.scheduled())
        eventq().deschedule(&upPumpEvent_);
}

void
Mbs::setKnobPosition(unsigned pos)
{
    ct_assert(pos <= 7);
    params_.knobPosition = pos;
}

bool
Mbs::quiescent() const
{
    return activeEngines_ == 0 && upQueue_.empty() && tags_.idle();
}

void
Mbs::powerReset()
{
    assembler_.reset();
    engines_.fill(Engine{});
    activeEngines_ = 0;
    tags_.powerReset();
    for (unsigned p = 0; p < 2; ++p) {
        writeReady_[p].clear();
        if (writeArbEvent_[p].scheduled())
            eventq().deschedule(&writeArbEvent_[p]);
    }
    upQueue_.clear();
    if (upPumpEvent_.scheduled())
        eventq().deschedule(&upPumpEvent_);
}

void
Mbs::checkpointSave(ckpt::Section &out) const
{
    if (!quiescent())
        panic("%s: checkpoint while not quiescent", name().c_str());
    out.putU32(params_.knobPosition);
    out.putU32(frameCounter_);
    tags_.checkpointSave(out);
}

void
Mbs::checkpointRestore(ckpt::Section &in)
{
    if (!quiescent())
        panic("%s: restore while not quiescent", name().c_str());
    params_.knobPosition = in.getU32();
    frameCounter_ = in.getU32();
    tags_.checkpointRestore(in);
}

void
Mbs::frameArrived(const DownFrame &frame)
{
    unsigned decoder = frameCounter_++ & 1;
    if (auto cmd = assembler_.feed(frame)) {
        MemCommand c = *cmd;
        OneShotEvent::schedule(
            eventq(), clockEdge(decodeCycles),
            [this, c, decoder] { dispatch(c, decoder); });
    }
}

void
Mbs::dispatch(const MemCommand &cmd, unsigned decoder)
{
    // The command has fully arrived and cleared the decode pipeline:
    // end the downstream-wire span, start the buffer-residency span
    // (which includes any same-line wait below).
    if (cmd.traceId != noTraceId) {
        span::closeIfOpen(cmd.traceId, "dmi.down", curTick());
        span::open(cmd.traceId, "mbs", curTick());
    }

    // Same-line ordering: every command but a flush holds its line
    // until its engine finishes, so reads cannot pass writes.
    if (!tags_.admit(cmd, cmd.type != CmdType::flush, decoder)) {
        ++stats_.addrOrderStalls;
        return;
    }
    execute(cmd, decoder);
}

void
Mbs::execute(const MemCommand &cmd, unsigned decoder)
{
    Engine &e = engines_[cmd.tag];
    if (e.active)
        panic("MBS: tag %u dispatched while engine busy", cmd.tag);
    e.active = true;
    e.cmd = cmd;
    ++activeEngines_;
    stats_.engineOccupancy.sample(double(activeEngines_));

    switch (cmd.type) {
      case CmdType::read128:
        ++stats_.reads;
        e.phase = Phase::readIssued;
        issueRead(cmd.tag, decoder);
        break;
      case CmdType::write128:
        ++stats_.writes;
        e.phase = Phase::writeArb;
        requestWriteGrant(cmd.tag);
        break;
      case CmdType::partialWrite:
        // Atomic RMW: read, merge in the ALU, write back (§3.3(iii)).
        ++stats_.rmws;
        e.phase = Phase::readIssued;
        issueRead(cmd.tag, decoder);
        break;
      case CmdType::flush:
        ++stats_.flushes;
        if (tags_.fence(cmd.tag))
            fenceDone(cmd.tag);
        break;
      case CmdType::minStore:
      case CmdType::maxStore:
      case CmdType::condSwap:
        ++stats_.inlineOps;
        e.phase = Phase::readIssued;
        issueRead(cmd.tag, decoder);
        break;
    }
}

void
Mbs::reissueAccess(unsigned tag)
{
    if (engines_[tag].phase == Phase::readIssued)
        issueRead(tag, tag & 1);
    else
        issueWrite(tag, tag / (numTags / 2));
}

void
Mbs::reclaimTag(unsigned tag)
{
    // The host is owed a response for the tag; a read gets poisoned
    // data so it never consumes garbage, everything else gets a bare
    // done.
    if (engines_[tag].cmd.type == CmdType::read128) {
        ++stats_.poisonedResponses;
        respondReadData(tag, CacheLine{}, true);
    }
    respondDone(tag);
    finishEngine(tag);
}

void
Mbs::fenceDone(unsigned tag)
{
    respondDone(tag);
    finishEngine(tag);
}

void
Mbs::issueRead(unsigned tag, unsigned decoder)
{
    Engine &e = engines_[tag];
    std::uint32_t seq = tags_.arm(tag);
    auto req = std::make_shared<MemRequest>();
    req->addr = e.cmd.addr;
    req->isWrite = false;
    req->traceId = e.cmd.traceId;
    req->onDone = [this, tag, seq](MemRequest &r) {
        CacheLine data = r.data;
        bool poisoned = r.poisoned;
        OneShotEvent::schedule(
            eventq(), clockEdge(readReturnCycles),
            [this, tag, seq, data, poisoned] {
                if (tags_.accept(tag, seq))
                    readReturned(tag, data, poisoned);
            });
    };
    issueToBus(*readPorts_[decoder], req);
}

void
Mbs::readReturned(unsigned tag, const CacheLine &data, bool poisoned)
{
    Engine &e = engines_[tag];
    ct_assert(e.active && e.phase == Phase::readIssued);
    if (e.cmd.type == CmdType::read128) {
        if (poisoned) {
            ++stats_.poisonedResponses;
            tags_.log(firmware::Severity::recoverable,
                      "uncorrectable ECC on read tag "
                          + std::to_string(tag));
        }
        respondReadData(tag, data, poisoned);
        respondDone(tag);
        finishEngine(tag);
        return;
    }
    if (poisoned) {
        // Containment: an RMW or in-line op must not fold poisoned
        // old data into memory. Drop the write, free the tag, and
        // let firmware know the line is suspect.
        ++stats_.poisonedResponses;
        tags_.log(firmware::Severity::recoverable,
                  "RMW on poisoned line contained, tag "
                      + std::to_string(tag));
        respondDone(tag);
        finishEngine(tag);
        return;
    }
    // RMW and in-line ops continue to the write path via the ALU.
    e.oldData = data;
    e.phase = Phase::writeArb;
    requestWriteGrant(tag);
}

void
Mbs::requestWriteGrant(unsigned tag)
{
    unsigned port = tag / (numTags / 2); // 16 engines per port
    writeReady_[port].push_back(std::uint8_t(tag));
    if (!writeArbEvent_[port].scheduled())
        scheduleClocked(&writeArbEvent_[port], 0);
}

void
Mbs::writeArbPump(unsigned port)
{
    if (writeReady_[port].empty())
        return;
    std::uint8_t tag = writeReady_[port].front();
    writeReady_[port].pop_front();
    ++stats_.writeArbGrants;

    Engine &e = engines_[tag];
    ct_assert(e.active && e.phase == Phase::writeArb);
    if (e.cmd.type == CmdType::write128) {
        // The ALU acts as a NOP for plain writes.
        e.phase = Phase::writeIssued;
        issueWrite(tag, port);
    } else {
        e.phase = Phase::merging;
        OneShotEvent::schedule(eventq(),
                               clockEdge(aluCycles),
                               [this, tag, port] {
                                   mergeAndWrite(tag, port);
                               });
    }

    if (!writeReady_[port].empty())
        scheduleClocked(&writeArbEvent_[port], 1);
}

void
Mbs::mergeAndWrite(unsigned tag, unsigned port)
{
    Engine &e = engines_[tag];
    ct_assert(e.active && e.phase == Phase::merging);
    switch (e.cmd.type) {
      case CmdType::partialWrite:
        for (std::size_t i = 0; i < cacheLineSize; ++i)
            if (!e.cmd.enables[i])
                e.cmd.data[i] = e.oldData[i];
        break;
      case CmdType::minStore:
      case CmdType::maxStore:
        for (unsigned lane = 0; lane < cacheLineSize / 8; ++lane) {
            std::int64_t oldv = laneAt(e.oldData, lane);
            std::int64_t newv = laneAt(e.cmd.data, lane);
            std::int64_t keep = e.cmd.type == CmdType::minStore
                ? std::min(oldv, newv)
                : std::max(oldv, newv);
            setLane(e.cmd.data, lane, keep);
        }
        break;
      case CmdType::condSwap: {
        std::int64_t expected = laneAt(e.cmd.data, 0);
        std::int64_t desired = laneAt(e.cmd.data, 1);
        std::int64_t current = laneAt(e.oldData, 0);
        if (current != expected) {
            // Compare failed: no write; report the old value.
            MemResponse resp;
            resp.type = RespType::swapOld;
            resp.tag = std::uint8_t(tag);
            resp.swapSucceeded = false;
            resp.traceId = e.cmd.traceId;
            std::memcpy(resp.data.data(), e.oldData.data(), 8);
            enqueueUpstream(encodeResponse(resp));
            respondDone(tag);
            finishEngine(tag);
            return;
        }
        e.cmd.data = e.oldData;
        setLane(e.cmd.data, 0, desired);
        break;
      }
      default:
        panic("MBS: merge for non-RMW command");
    }
    e.phase = Phase::writeIssued;
    issueWrite(tag, port);
}

void
Mbs::issueWrite(unsigned tag, unsigned port)
{
    Engine &e = engines_[tag];
    std::uint32_t seq = tags_.arm(tag);
    auto req = std::make_shared<MemRequest>();
    req->addr = e.cmd.addr;
    req->isWrite = true;
    req->data = e.cmd.data;
    req->traceId = e.cmd.traceId;
    req->onDone = [this, tag, seq](MemRequest &) {
        if (tags_.accept(tag, seq))
            writeCompleted(tag);
    };
    issueToBus(*writePorts_[port], req);
}

void
Mbs::writeCompleted(unsigned tag)
{
    Engine &e = engines_[tag];
    ct_assert(e.active && e.phase == Phase::writeIssued);
    if (e.cmd.type == CmdType::condSwap) {
        MemResponse resp;
        resp.type = RespType::swapOld;
        resp.tag = std::uint8_t(tag);
        resp.swapSucceeded = true;
        resp.traceId = e.cmd.traceId;
        std::memcpy(resp.data.data(), e.oldData.data(), 8);
        enqueueUpstream(encodeResponse(resp));
    }
    respondDone(tag);
    finishEngine(tag);
}

void
Mbs::respondReadData(unsigned tag, const CacheLine &data,
                     bool poisoned)
{
    MemResponse resp;
    resp.type = RespType::readData;
    resp.tag = std::uint8_t(tag);
    resp.data = data;
    resp.poisoned = poisoned;
    resp.traceId = engines_[tag].cmd.traceId;
    enqueueUpstream(encodeResponse(resp));
}

void
Mbs::respondDone(unsigned tag)
{
    MemResponse resp;
    resp.type = RespType::done;
    resp.tag = std::uint8_t(tag);
    resp.traceId = engines_[tag].cmd.traceId;
    enqueueUpstream(encodeResponse(resp));
}

void
Mbs::enqueueUpstream(const ResponseFrames &frames)
{
    for (const UpFrame &f : frames)
        upQueue_.push_back(f);
    if (!upPumpEvent_.scheduled())
        scheduleClocked(&upPumpEvent_, respondCycles);
}

void
Mbs::upstreamPump()
{
    for (unsigned n = 0;
         n < upstreamFramesPerCycle && !upQueue_.empty();
         ++n) {
        UpFrame f = upQueue_.pop_front();
        // Completion packing: adjacent done frames share a frame.
        if (f.type == FrameType::done) {
            while (f.doneCount < params_.doneTagsPerFrame
                   && f.doneCount < 4 && !upQueue_.empty()
                   && upQueue_.front().type == FrameType::done
                   && upQueue_.front().doneCount == 1) {
                f.doneTags[f.doneCount++] =
                    upQueue_.front().doneTags[0];
                upQueue_.pop_front();
            }
            if (f.doneCount > 1)
                ++stats_.doneFramesPacked;
        }
        link_.sendFrame(f);
        ++stats_.upstreamFrames;
    }
    if (!upQueue_.empty())
        scheduleClocked(&upPumpEvent_, 1);
}

void
Mbs::finishEngine(unsigned tag)
{
    Engine &e = engines_[tag];
    ct_assert(e.active);
    if (e.cmd.traceId != noTraceId)
        span::closeIfOpen(e.cmd.traceId, "mbs", curTick());
    e = Engine{};
    ct_assert(activeEngines_ > 0);
    --activeEngines_;
    tags_.retire(tag);
}

void
Mbs::issueToBus(bus::AvalonBus::Port &port,
                const MemRequestPtr &req)
{
    unsigned delay_cycles =
        params_.knobPosition * knobStepCycles;
    if (delay_cycles == 0) {
        port.submit(req);
        return;
    }
    if (req->traceId != noTraceId)
        span::open(req->traceId, "mbs.knob", curTick());
    bus::AvalonBus::Port *p = &port;
    MemRequestPtr r = req;
    OneShotEvent::schedule(
        eventq(), clockEdge(delay_cycles), [this, p, r] {
            if (r->traceId != noTraceId)
                span::closeIfOpen(r->traceId, "mbs.knob", curTick());
            p->submit(r);
        });
}

} // namespace contutto::fpga
