#include "cpu/trace_replay.hh"

namespace contutto::cpu
{

TraceReplayer::TraceReplayer(const std::string &name, EventQueue &eq,
                             const ClockDomain &domain,
                             stats::StatGroup *parent,
                             const Params &params, HostMemPort &port)
    : SimObject(name, eq, domain, parent),
      ChannelTrips(eq, port, params.nestOverhead, params.sampler),
      params_(params),
      advanceEvent_([this] { issueCurrent(); }, name + ".advance")
{
    ct_assert(params_.window > 0);
}

TraceReplayer::~TraceReplayer()
{
    if (advanceEvent_.scheduled())
        eventq().deschedule(&advanceEvent_);
}

void
TraceReplayer::start(const trace::MappedTrace &trace,
                     std::function<void(const Result &)> done)
{
    ct_assert(!running_);
    running_ = true;
    trace_ = &trace;
    next_ = 0;
    outstanding_ = 0;
    waitingDrain_ = false;
    result_ = Result{};
    startedAt_ = curTick();
    done_ = std::move(done);
    advance();
}

void
TraceReplayer::advance()
{
    if (!running_ || waitingDrain_ || advanceEvent_.scheduled())
        return;
    if (next_ >= trace_->recordCount()) {
        maybeFinish();
        return;
    }
    cur_ = trace_->record(next_);
    result_.computeTime += cur_.tickDelta;
    eventq().schedule(&advanceEvent_, curTick() + cur_.tickDelta);
}

void
TraceReplayer::issueCurrent()
{
    if (trace::opIsDependent(cur_.op) && outstanding_ > 0) {
        // Drain before a dependent access.
        waitingDrain_ = true;
        return;
    }
    if (outstanding_ >= params_.window) {
        waitingDrain_ = true; // window full: resume on completion
        return;
    }
    const Addr addr = cur_.addr & ~Addr(dmi::cacheLineSize - 1);
    const bool isWrite = trace::opIsWrite(cur_.op);
    ++next_;
    ++outstanding_;
    if (isWrite)
        ++result_.writes;
    else
        ++result_.reads;

    if (params_.caches) {
        auto filtered = params_.caches->access(addr, isWrite);
        if (filtered.writeback) {
            // Dirty L3 victim: fire-and-forget to memory, but it
            // occupies a window slot until it lands.
            ++outstanding_;
            ++result_.writebacks;
            if (params_.capture)
                params_.capture->record(curTick(),
                                        *filtered.writeback,
                                        trace::Op::write);
            if (trip(next_, *filtered.writeback, true, 0, false))
                ++result_.detailed;
        }
        if (filtered.servedBy != CacheHierarchy::Level::memory) {
            // On-chip hit: completes after the level's latency.
            ++result_.cacheHits;
            OneShotEvent::schedule(eventq(),
                                   curTick() + filtered.delay,
                                   [this] { accessDone(); });
            advance();
            return;
        }
    }

    if (params_.capture)
        params_.capture->record(curTick(), addr, cur_.op);
    if (trip(next_, addr, isWrite))
        ++result_.detailed;
    advance();
}

void
TraceReplayer::accessDone()
{
    ct_assert(outstanding_ > 0);
    --outstanding_;
    if (waitingDrain_) {
        bool can_issue = trace::opIsDependent(cur_.op)
                             ? outstanding_ == 0
                             : outstanding_ < params_.window;
        if (can_issue) {
            waitingDrain_ = false;
            issueCurrent();
        }
    }
    maybeFinish();
}

void
TraceReplayer::maybeFinish()
{
    if (!running_ || next_ < trace_->recordCount()
        || outstanding_ > 0)
        return;
    running_ = false;
    if (params_.sampler)
        params_.sampler->finishRun(trace_->recordCount(), curTick(),
                                   next_);
    result_.runtime = curTick() - startedAt_;
    if (done_)
        done_(result_);
}

TimedTraceReplayer::TimedTraceReplayer(
    const std::string &name, EventQueue &eq,
    const ClockDomain &domain, stats::StatGroup *parent,
    const Params &params, HostMemPort &port)
    : SimObject(name, eq, domain, parent),
      ChannelTrips(eq, port, params.nestOverhead, params.sampler),
      params_(params),
      issueEvent_([this] { issueDue(); }, name + ".issue")
{}

TimedTraceReplayer::~TimedTraceReplayer()
{
    if (issueEvent_.scheduled())
        eventq().deschedule(&issueEvent_);
}

void
TimedTraceReplayer::start(const trace::MappedTrace &trace,
                          std::function<void(const Result &)> done)
{
    ct_assert(!running_);
    running_ = true;
    trace_ = &trace;
    next_ = 0;
    outstanding_ = 0;
    result_ = Result{};
    startedAt_ = curTick();
    done_ = std::move(done);
    if (trace.recordCount() == 0) {
        maybeFinish();
        return;
    }
    // A trace whose origin is already behind us replays under a
    // rigid shift; deltas — and therefore a recapture — are
    // unchanged.
    nextTick_ = trace.record(0).tickDelta;
    shift_ = nextTick_ >= curTick() ? 0 : curTick() - nextTick_;
    if (params_.capture)
        params_.capture->setBase(shift_);
    scheduleNext();
}

void
TimedTraceReplayer::scheduleNext()
{
    if (next_ >= trace_->recordCount()) {
        maybeFinish();
        return;
    }
    eventq().schedule(&issueEvent_, nextTick_ + shift_);
}

void
TimedTraceReplayer::issueDue()
{
    // Issue every record whose (shifted) tick is now; records are
    // decoded straight off the mmap, one at a time.
    Tick now = curTick();
    while (next_ < trace_->recordCount()
           && nextTick_ + shift_ == now) {
        trace::Record rec = trace_->record(next_);
        bool isWrite = trace::opIsWrite(rec.op);
        if (isWrite)
            ++result_.writes;
        else
            ++result_.reads;
        ++result_.replayed;
        ++outstanding_;
        if (params_.capture)
            params_.capture->record(now, rec.addr, rec.op,
                                    rec.sizeLog2, rec.threadId);

        if (trip(next_, rec.addr, isWrite))
            ++result_.detailed;

        ++next_;
        if (next_ < trace_->recordCount())
            nextTick_ += trace_->record(next_).tickDelta;
    }
    scheduleNext();
}

void
TimedTraceReplayer::tripDone(std::uint32_t)
{
    ct_assert(outstanding_ > 0);
    --outstanding_;
    maybeFinish();
}

void
TimedTraceReplayer::maybeFinish()
{
    if (!running_ || next_ < trace_->recordCount()
        || outstanding_ > 0)
        return;
    running_ = false;
    if (params_.sampler)
        params_.sampler->finishRun(trace_->recordCount(), curTick(),
                                   next_);
    result_.runtime = curTick() - startedAt_;
    if (done_)
        done_(result_);
}

} // namespace contutto::cpu
