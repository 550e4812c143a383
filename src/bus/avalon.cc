#include "bus/avalon.hh"

namespace contutto::bus
{

namespace
{

/** Minimum spacing between issues on one port, cycles. */
constexpr unsigned portIssueCycles = 1;
/** Per-port queue depth. */
constexpr std::size_t portQueueCapacity = 64;
/** Clock-domain-crossing latency each way, fabric cycles. */
constexpr unsigned cdcCycles = 6;

} // namespace

AvalonBus::AvalonBus(const std::string &name, EventQueue &eq,
                     const ClockDomain &domain,
                     stats::StatGroup *parent)
    : SimObject(name, eq, domain, parent),
      stats_{{this, "transactions", "bus transactions completed"},
             {this, "bytes", "payload bytes moved"},
             {this, "unmappedAccesses", "accesses to unmapped space"}}
{}

void
AvalonBus::attach(AvalonSlave &slave, const AddressRange &range)
{
    ct_assert(range.size > 0);
    for (const Mapping &m : mappings_) {
        bool overlap = range.base < m.range.base + m.range.size
            && m.range.base < range.base + range.size;
        if (overlap)
            fatal("bus mapping for %s overlaps %s",
                  slave.slaveName().c_str(),
                  m.slave->slaveName().c_str());
    }
    mappings_.push_back(Mapping{&slave, range});
}

AvalonBus::Port &
AvalonBus::createPort(const std::string &port_name)
{
    ports_.emplace_back(
        std::unique_ptr<Port>(new Port(*this, port_name)));
    return *ports_.back();
}

AvalonBus::Port::Port(AvalonBus &bus, std::string name)
    : bus_(bus), name_(std::move(name)),
      pumpEvent_(std::make_unique<EventFunctionWrapper>(
          [this] { pump(); }, name_ + ".pump"))
{}

AvalonBus::Port::~Port()
{
    if (pumpEvent_->scheduled())
        bus_.eventq().deschedule(pumpEvent_.get());
}

bool
AvalonBus::Port::canAccept() const
{
    return queue_.size() < portQueueCapacity;
}

void
AvalonBus::Port::submit(const mem::MemRequestPtr &req)
{
    ct_assert(req != nullptr);
    if (!canAccept())
        panic("bus port %s queue overflow", name_.c_str());
    queue_.push_back(req);
    if (!pumpEvent_->scheduled())
        bus_.eventq().schedule(pumpEvent_.get(),
                               std::max(bus_.clockEdge(0),
                                        nextIssueAt_));
}

void
AvalonBus::Port::pump()
{
    if (queue_.empty())
        return;
    mem::MemRequestPtr req = queue_.pop_front();
    bus_.dispatch(req);
    nextIssueAt_ = bus_.clockEdge(portIssueCycles);
    if (!queue_.empty())
        bus_.eventq().schedule(pumpEvent_.get(), nextIssueAt_);
}

void
AvalonBus::dispatch(const mem::MemRequestPtr &req)
{
    const Mapping *hit = nullptr;
    for (const Mapping &m : mappings_) {
        if (m.range.contains(req->addr, req->size)) {
            hit = &m;
            break;
        }
    }
    if (!hit) {
        ++stats_.unmappedAccesses;
        warn("bus access to unmapped address 0x%llx",
             (unsigned long long)req->addr);
        // Reads of unmapped space return zeros; completion is still
        // signalled so the requester does not hang.
        req->data.fill(0);
        if (req->onDone)
            req->onDone(*req);
        return;
    }

    // Rewrite to a slave-relative address; masters keep their own
    // copy of the global address in their command state.
    req->addr -= hit->range.base;

    // Wrap the completion so the response pays the return CDC hop.
    // The wrapper lives inside the request, so it holds the request
    // weakly; the deferred call holds it strongly until it runs (or
    // until the queue releases it unfired).
    auto original = std::move(req->onDone);
    std::weak_ptr<mem::MemRequest> self = req;
    req->onDone = [this, original, self](mem::MemRequest &r) {
        ++stats_.transactions;
        stats_.bytes += double(r.size);
        if (original)
            OneShotEvent::schedule(eventq(),
                                   clockEdge(cdcCycles),
                                   [original, keep = self.lock()] {
                                       original(*keep);
                                   });
    };

    // Request-side CDC hop into the slave's domain.
    AvalonSlave *slave = hit->slave;
    mem::MemRequestPtr req_copy = req;
    OneShotEvent::schedule(eventq(), clockEdge(cdcCycles),
                           [slave, req_copy] {
                               slave->access(req_copy);
                           });
}

} // namespace contutto::bus
