#include "sim/event.hh"

#include <algorithm>

namespace contutto
{

Event::~Event()
{
    // Destroying a still-scheduled event would leave a dangling
    // pointer in the queue; models must deschedule first. Deschedule
    // removes every trace of the event, wheel or overflow, so the
    // owner may destroy it right after.
    if (_scheduled)
        panic("event destroyed while scheduled");
}

void
OneShotEvent::process()
{
    // Move the callback out and return the slot to the pool before
    // user code runs: the callback may schedule new one-shots, and
    // they can reuse this very slot.
    EventQueue *eq = eq_;
    Callback fn = std::move(fn_);
    this->~OneShotEvent();
    eq->freeOneShot(this);
    fn();
}

EventQueue::EventQueue()
    : _buckets(numBuckets),
      _occ(numWheelWords, 0),
      _summary(numSummaryWords, 0)
{
    for (Bucket &b : _buckets)
        b.list._next = b.list._prev = &b.list;
}

EventQueue::~EventQueue()
{
    // Pending one-shots own themselves and their captures: release
    // them unfired. Persistent events belong to models, which
    // deschedule them in their own destructors.
    std::vector<OneShotEvent *> pending;
    auto collect = [&pending](Event *ev) {
        if (auto *os = dynamic_cast<OneShotEvent *>(ev))
            pending.push_back(os);
    };
    for (Bucket &b : _buckets)
        for (detail::WheelLink *l = b.list._next; l != &b.list;
             l = l->_next)
            collect(static_cast<Event *>(l));
    for (Event *ev : _overflow)
        collect(ev);
    for (OneShotEvent *os : pending) {
        deschedule(os);
        os->~OneShotEvent();
    }
}

void
EventQueue::markOccupied(std::size_t idx)
{
    _occ[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    _summary[idx >> 12] |= std::uint64_t(1) << ((idx >> 6) & 63);
}

bool
EventQueue::firesAfter(const Event &a, const Event &b)
{
    // Bitwise, not short-circuit: within a coarse bucket whether two
    // ticks tie is data-dependent, and a mispredicted branch per
    // compare costs more than evaluating all three keys.
    const bool gtWhen = a._when > b._when;
    const bool eqWhen = a._when == b._when;
    const bool gtPrio = a._priority > b._priority;
    const bool eqPrio = a._priority == b._priority;
    const bool gtOrder = a._order > b._order;
    return gtWhen | (eqWhen & (gtPrio | (eqPrio & gtOrder)));
}

void
EventQueue::bucketInsert(Event *ev)
{
    const std::size_t idx = bucketOf(ev->_when);
    Bucket &b = _buckets[idx];
    ev->_inWheel = true;

    // A bucket spans wheelGrain ticks, but every resident lies in
    // this event's slot (the wheel holds fewer than numBuckets slots
    // past curTick's, so indices cannot alias two slots). The bucket
    // is kept sorted by (tick, priority, order), and its head is the
    // next event of the slot. Fresh schedules carry the largest order
    // yet issued, so the walk back from the tail only passes
    // residents at a later tick or a higher priority value; overflow
    // pulls, which keep their original order, also pass same-key
    // later arrivals.
    detail::WheelLink *const sentinel = &b.list;
    detail::WheelLink *after = sentinel->_prev;
    while (after != sentinel
           && firesAfter(*static_cast<Event *>(after), *ev))
        after = after->_prev;
    detail::WheelLink *const link = ev;
    link->_prev = after;
    link->_next = after->_next;
    after->_next->_prev = link;
    after->_next = link;

    markOccupied(idx);
    ++b.count;
    ++_wheelCount;
    if (b.count > _ctr.bucketHighWater && !_freezeCtr)
        _ctr.bucketHighWater = b.count;
}

void
EventQueue::bucketUnlink(Event *ev)
{
    const std::size_t idx = bucketOf(ev->_when);
    Bucket &b = _buckets[idx];
    detail::WheelLink *const link = ev;
    link->_prev->_next = link->_next;
    link->_next->_prev = link->_prev;
    link->_prev = link->_next = nullptr;
    ev->_inWheel = false;
    --b.count;
    --_wheelCount;

    // Clear the occupancy bits without branching on emptiness.
    const std::size_t w = idx >> 6;
    _occ[w] &= ~(std::uint64_t(b.count == 0) << (idx & 63));
    _summary[w >> 6] &= ~(std::uint64_t(_occ[w] == 0) << (w & 63));
}

std::size_t
EventQueue::nextOccupied(std::size_t fromBucket) const
{
    // Tail of the word the scan starts in.
    const std::size_t w = fromBucket >> 6;
    std::uint64_t bits =
        _occ[w] & (~std::uint64_t(0) << (fromBucket & 63));
    if (bits)
        return (w << 6) | std::size_t(std::countr_zero(bits));

    // Two-level walk for the next occupied word, wrapping once; a
    // wrap past the start is correct (those buckets are circularly
    // later within the span).
    const std::size_t start = (w + 1) & (numWheelWords - 1);
    std::size_t sw = start >> 6;
    std::uint64_t sbits =
        _summary[sw] & (~std::uint64_t(0) << (start & 63));
    for (std::size_t i = 0; i <= numSummaryWords; ++i) {
        if (sbits) {
            const std::size_t word =
                (sw << 6) | std::size_t(std::countr_zero(sbits));
            return (word << 6)
                   | std::size_t(std::countr_zero(_occ[word]));
        }
        sw = (sw + 1) & (numSummaryWords - 1);
        sbits = _summary[sw];
    }
    panic("event wheel occupancy bitmap inconsistent");
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ct_assert(ev != nullptr);
    if (ev->_scheduled)
        panic("event '%s' scheduled twice", ev->name());
    if (when < _curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name(),
              (unsigned long long)when,
              (unsigned long long)_curTick);

    ev->_when = when;
    ev->_order = _nextOrder++;
    ev->_scheduled = true;
    ++_live;
    if (!_freezeCtr) {
        ++_ctr.schedules;
        if (_live > _ctr.liveHighWater)
            _ctr.liveHighWater = _live;
    }

    if (inHorizon(when)) {
        bucketInsert(ev);
    } else {
        ev->_inWheel = false;
        _overflow.push_back(ev);
        heapSiftUp(std::uint32_t(_overflow.size() - 1), ev);
        if (!_freezeCtr)
            ++_ctr.overflowSpills;
    }
}

void
EventQueue::deschedule(Event *ev)
{
    ct_assert(ev != nullptr);
    if (!ev->_scheduled)
        panic("deschedule of unscheduled event '%s'", ev->name());

    ev->_scheduled = false;
    --_live;
    if (!_freezeCtr)
        ++_ctr.deschedules;

    if (ev->_inWheel)
        bucketUnlink(ev);
    else
        heapRemove(ev);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (!_freezeCtr)
        ++_ctr.reschedules;
    if (ev->scheduled()) {
        if (ev->_when == when) {
            // Same-tick rearm: keep the event exactly where it is,
            // original tie-break included (see the header contract).
            if (!_freezeCtr)
                ++_ctr.rescheduleNoops;
            return;
        }
        deschedule(ev);
    }
    schedule(ev, when);
}

void
EventQueue::heapSiftUp(std::uint32_t i, Event *ev)
{
    while (i > 0) {
        const std::uint32_t parent = (i - 1) / 2;
        Event *p = _overflow[parent];
        if (!firesAfter(*p, *ev))
            break;
        _overflow[i] = p;
        p->_heapIndex = i;
        i = parent;
    }
    _overflow[i] = ev;
    ev->_heapIndex = i;
}

void
EventQueue::heapSiftDown(std::uint32_t i, Event *ev)
{
    const std::uint32_t n = std::uint32_t(_overflow.size());
    for (;;) {
        std::uint32_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n
            && firesAfter(*_overflow[child], *_overflow[child + 1]))
            ++child;
        Event *c = _overflow[child];
        if (!firesAfter(*ev, *c))
            break;
        _overflow[i] = c;
        c->_heapIndex = i;
        i = child;
    }
    _overflow[i] = ev;
    ev->_heapIndex = i;
}

void
EventQueue::heapRemove(Event *ev)
{
    // Fill the hole with the last entry and settle it: at most one
    // of the two sifts moves it.
    Event *last = _overflow.back();
    _overflow.pop_back();
    if (last != ev) {
        heapSiftUp(ev->_heapIndex, last);
        heapSiftDown(last->_heapIndex, last);
    }
}

void
EventQueue::pullOverflow()
{
    while (!_overflow.empty() && inHorizon(_overflow.front()->_when)) {
        Event *ev = _overflow.front();
        heapRemove(ev);
        // The event kept its original order, so bucketInsert places
        // it correctly relative to later same-tick schedules.
        bucketInsert(ev);
        if (!_freezeCtr)
            ++_ctr.overflowPulls;
    }
}

Event *
EventQueue::peekNext()
{
    if (_live == 0)
        return nullptr;
    pullOverflow();
    if (_wheelCount) {
        const std::size_t idx = nextOccupied(bucketOf(_curTick));
        return static_cast<Event *>(_buckets[idx].list._next);
    }
    // Wheel empty: the next event sits beyond the horizon.
    if (!_overflow.empty())
        return _overflow.front();
    panic("event queue inconsistent: %llu live events unreachable",
          (unsigned long long)_live);
}

void
EventQueue::fire(Event *ev)
{
    if (ev->_inWheel)
        bucketUnlink(ev);
    else
        heapRemove(ev); // peekNext() returned the overflow top
    ct_assert(ev->_when >= _curTick);
    _curTick = ev->_when;
    ev->_scheduled = false;
    --_live;
    ++_ctr.processed;
    _dispatching = true;
    ev->process();
    _dispatching = false;
}

bool
EventQueue::step()
{
    Event *ev = peekNext();
    if (!ev)
        return false;
    fire(ev);
    return true;
}

Tick
EventQueue::nextEventTick()
{
    Event *ev = peekNext();
    return ev ? ev->_when : maxTick;
}

Tick
EventQueue::run(Tick limit)
{
    std::uint64_t untilPoll = cancelPollInterval;
    for (;;) {
        Event *ev = peekNext();
        if (!ev)
            return _curTick;
        if (ev->_when > limit) {
            // Leave future events queued; advance time to the limit
            // so a subsequent run() continues from a known point.
            // Never rewind: wheel residents were admitted against
            // the current slot, and an earlier curTick would put
            // them beyond the horizon (aliasing their buckets).
            _curTick = std::max(_curTick, limit);
            return _curTick;
        }
        fire(ev);
        if (--untilPoll == 0) {
            if (cancelRequested())
                return _curTick;
            untilPoll = cancelPollInterval;
        }
    }
}

void
EventQueue::checkpointSave(ckpt::Section &out) const
{
    out.putU64(_curTick);
    out.putU64(_nextOrder);
    out.putU64(_ctr.processed);
    out.putU64(_ctr.schedules);
    out.putU64(_ctr.deschedules);
    out.putU64(_ctr.reschedules);
    out.putU64(_ctr.rescheduleNoops);
    out.putU64(_ctr.overflowSpills);
    out.putU64(_ctr.overflowPulls);
    out.putU64(_ctr.liveHighWater);
    out.putU64(_ctr.bucketHighWater);
    out.putU64(_ctr.oneShotPoolHits);
    out.putU64(_ctr.oneShotPoolMisses);
    // Pool capacity is history-dependent state: whether a future
    // alloc hits the freelist or grows a chunk depends on how many
    // chunks the run had grown by the boundary.
    out.putU64(_poolChunks.size());
}

void
EventQueue::checkpointRestore(ckpt::Section &in)
{
    // Live Event objects belong to their owners and cannot be
    // serialized; the drain phase must have descheduled all of them
    // before the clock is rewound (see ckpt::Checkpointable).
    if (!empty())
        panic("event queue restore with %llu events still live",
              (unsigned long long)_live);
    ct_assert(_wheelCount == 0 && _overflow.empty());
    _curTick = in.getU64();
    _nextOrder = in.getU64();
    _ctr.processed = in.getU64();
    _ctr.schedules = in.getU64();
    _ctr.deschedules = in.getU64();
    _ctr.reschedules = in.getU64();
    _ctr.rescheduleNoops = in.getU64();
    _ctr.overflowSpills = in.getU64();
    _ctr.overflowPulls = in.getU64();
    _ctr.liveHighWater = in.getU64();
    _ctr.bucketHighWater = in.getU64();
    _ctr.oneShotPoolHits = in.getU64();
    _ctr.oneShotPoolMisses = in.getU64();
    // Regrow the one-shot pool to the boundary capacity so future
    // hit/miss accounting matches the uninterrupted run. A drained
    // quiescent queue has every slot on the freelist, so capacity is
    // the only pool state there is. The fresh run's warm-up is a
    // prefix of the saved history, so it can only be smaller.
    const std::uint64_t chunks = in.getU64();
    if (_poolChunks.size() > chunks)
        panic("event queue restore: pool outgrew the checkpoint "
              "(%llu > %llu chunks)",
              (unsigned long long)_poolChunks.size(),
              (unsigned long long)chunks);
    while (_poolChunks.size() < chunks) {
        auto chunk = std::make_unique<unsigned char[]>(
            oneShotSlotBytes * oneShotChunkSlots);
        for (std::size_t i = oneShotChunkSlots; i-- > 0;) {
            auto *slot = reinterpret_cast<OneShotSlot *>(
                chunk.get() + i * oneShotSlotBytes);
            slot->next = _freeOneShots;
            _freeOneShots = slot;
        }
        _poolChunks.push_back(std::move(chunk));
    }
}

void *
EventQueue::allocOneShot()
{
    if (!_freeOneShots) {
        ++_ctr.oneShotPoolMisses;
        auto chunk = std::make_unique<unsigned char[]>(
            oneShotSlotBytes * oneShotChunkSlots);
        for (std::size_t i = oneShotChunkSlots; i-- > 0;) {
            auto *slot = reinterpret_cast<OneShotSlot *>(
                chunk.get() + i * oneShotSlotBytes);
            slot->next = _freeOneShots;
            _freeOneShots = slot;
        }
        _poolChunks.push_back(std::move(chunk));
    } else {
        ++_ctr.oneShotPoolHits;
    }
    OneShotSlot *s = _freeOneShots;
    _freeOneShots = s->next;
    return s;
}

void
EventQueue::freeOneShot(void *p)
{
    auto *slot = static_cast<OneShotSlot *>(p);
    slot->next = _freeOneShots;
    _freeOneShots = slot;
}

} // namespace contutto
