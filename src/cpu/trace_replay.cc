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
    cur_ = trace.record(0);
    nextTick_ = cur_.tickDelta;
    shift_ = nextTick_ >= curTick() ? 0 : curTick() - nextTick_;
    if (params_.capture)
        params_.capture->setBase(shift_);
    scheduleNext();
}

void
TimedTraceReplayer::scheduleNext()
{
    if (next_ >= trace_->recordCount()) {
        settleTail(maxTick);
        maybeFinish();
        return;
    }
    const Tick at = nextTick_ + shift_;
    settleTail(at);
    eventq().schedule(&issueEvent_, at);
}

void
TimedTraceReplayer::issueDue()
{
    // Issue every record whose (shifted) tick is now. Then keep
    // going between events: a record the sampler will fast-forward
    // is issued at its own tick when that tick comes before the
    // queue's next event (which was queued first, so it wins a tie)
    // and within the limit of the run() firing us
    // (cpu/channel_trip.hh, DESIGN.md §14).
    const Tick now = curTick();
    Tick nextEvent = 0;
    Tick limit = 0;
    bool bounded = false;
    while (next_ < trace_->recordCount()) {
        const Tick at = nextTick_ + shift_;
        const bool ahead = at != now;
        if (ahead) {
            if (!nextTripSkips())
                break;
            // Read once this tick's own records are out: a detailed
            // one among them may have queued an earlier event, and a
            // fast-forwarded one queues none.
            if (!bounded) {
                nextEvent = eventq().nextEventTick();
                limit = eventq().dispatchLimit();
                bounded = true;
            }
            if (at >= nextEvent || at > limit)
                break;
        }
        issue(at, ahead);
    }
    scheduleNext();
}

void
TimedTraceReplayer::issue(Tick at, bool ahead)
{
    const bool isWrite = trace::opIsWrite(cur_.op);
    if (isWrite)
        ++result_.writes;
    else
        ++result_.reads;
    ++result_.replayed;
    ++outstanding_;
    if (params_.capture)
        params_.capture->record(at, cur_.addr, cur_.op, cur_.sizeLog2,
                                cur_.threadId);

    if (ahead)
        skipAheadTrip(next_, at, cur_.addr, isWrite);
    else if (trip(next_, cur_.addr, isWrite))
        ++result_.detailed;

    ++next_;
    if (next_ < trace_->recordCount()) {
        cur_ = trace_->record(next_);
        nextTick_ += cur_.tickDelta;
    }
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
