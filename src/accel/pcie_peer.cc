#include "accel/pcie_peer.hh"

namespace contutto::accel
{

using mem::MemRequest;

namespace
{

/** Effective payload bandwidth (Gen3 x8 class). */
constexpr double bandwidth = 6.4e9;
/** Doorbell + descriptor fetch per transfer. */
constexpr Tick setupLatency = microseconds(3);
/** Lines in flight across the link. */
constexpr unsigned window = 64;

} // namespace

PciePeerLink::PciePeerLink(const std::string &name,
                           sim::ShardedExecutor &exec, unsigned shardA,
                           unsigned shardB, const ClockDomain &domain,
                           stats::StatGroup *parent,
                           fpga::ContuttoCard &cardA,
                           fpga::ContuttoCard &cardB)
    : SimObject(name, exec.queue(shardA), domain, parent),
      portA_(&cardA.avalon().createPort(name + ".dmaA")),
      portB_(&cardB.avalon().createPort(name + ".dmaB")),
      exec_(exec), shardA_(shardA), shardB_(shardB),
      stats_{{this, "transfers", "peer transfers completed"},
             {this, "bytesMoved", "bytes moved card-to-card"}}
{
    ct_assert(shardA < exec.numShards() && shardB < exec.numShards());
    // A line crossing shards lands at the next window edge; with a
    // window wider than the line latency every line would be late.
    if (shardA != shardB && exec.window() > lineLatency)
        fatal("%s: cards on shards %u and %u need an executor window "
              "no wider than the PCIe line latency, but the window is "
              "%llu ticks and the line latency %llu ticks",
              name.c_str(), shardA, shardB,
              (unsigned long long)exec.window(),
              (unsigned long long)lineLatency);
}

void
PciePeerLink::transfer(unsigned src_card, Addr src, Addr dst,
                       std::uint64_t bytes,
                       std::function<void()> done)
{
    ct_assert(!busy_);
    ct_assert(src_card < 2);
    ct_assert(bytes % dmi::cacheLineSize == 0);
    busy_ = true;
    srcCard_ = src_card;
    src_ = src;
    dst_ = dst;
    totalLines_ = bytes / dmi::cacheLineSize;
    nextRead_ = 0;
    writesDone_ = 0;
    inFlight_ = 0;
    done_ = std::move(done);

    // Doorbell + descriptor fetch, then the engine starts pulling on
    // the source card's shard.
    exec_.runOn(shardOf(src_card), [this] {
        EventQueue &q = engineQueue();
        OneShotEvent::schedule(q, q.curTick() + setupLatency,
                               [this] {
                                   linkFreeAt_ = engineQueue().curTick();
                                   pump();
                               });
    });
}

void
PciePeerLink::pump()
{
    bus::AvalonBus::Port *src_port =
        srcCard_ == 0 ? portA_ : portB_;
    while (inFlight_ < window && nextRead_ < totalLines_
           && src_port->canAccept()) {
        std::uint64_t index = nextRead_++;
        ++inFlight_;
        auto req = std::make_shared<MemRequest>();
        req->addr = src_ + index * dmi::cacheLineSize;
        req->isWrite = false;
        req->onDone = [this, index](MemRequest &r) {
            // Serialize the line onto the PCIe link (still on the
            // source shard: linkFreeAt_ is engine state).
            Tick ser = Tick(double(dmi::cacheLineSize)
                            / bandwidth * 1e12);
            Tick start =
                std::max(engineQueue().curTick(), linkFreeAt_);
            linkFreeAt_ = start + ser;
            const Tick arrive = linkFreeAt_ + lineLatency;
            const unsigned to = shardOf(1 - srcCard_);
            auto land = [this, index, data = r.data] {
                lineArrived(index, data);
            };
            // Co-sharded cards take the queue directly; otherwise the
            // line crosses as an executor message, which the window
            // check in the constructor keeps on time.
            if (to == shardOf(srcCard_))
                OneShotEvent::schedule(exec_.queue(to), arrive,
                                       std::move(land));
            else
                exec_.post(to, arrive, std::move(land));
        };
        src_port->submit(req);
    }
}

void
PciePeerLink::lineArrived(std::uint64_t index,
                          const dmi::CacheLine &data)
{
    // Runs on the destination card's shard; it touches only the
    // destination port (srcCard_/dst_ are constant for the duration
    // of a transfer). Completion hops back to the engine.
    bus::AvalonBus::Port *dst_port =
        srcCard_ == 0 ? portB_ : portA_;
    auto req = std::make_shared<MemRequest>();
    req->addr = dst_ + index * dmi::cacheLineSize;
    req->isWrite = true;
    req->data = data;
    req->onDone = [this](MemRequest &) {
        exec_.runOn(shardOf(srcCard_), [this] {
            ct_assert(inFlight_ > 0);
            --inFlight_;
            ++writesDone_;
            stats_.bytesMoved += double(dmi::cacheLineSize);
            if (writesDone_ == totalLines_) {
                busy_ = false;
                ++stats_.transfers;
                if (done_)
                    done_();
                return;
            }
            pump();
        });
    };
    dst_port->submit(req);
}

} // namespace contutto::accel
