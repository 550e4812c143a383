/**
 * @file
 * Direct card-to-card transfers over the PCIe block (paper §3.2).
 *
 * ConTutto carries a PCIe interface that "could be potentially used
 * for direct memory-to-memory transfers between ConTutto cards
 * without burdening the POWER8 memory bus". This models that: a DMA
 * engine on each card's Avalon bus, connected by a peer PCIe link.
 * A transfer streams lines out of the source card's DIMMs, across
 * the link at PCIe bandwidth, and into the destination card's
 * DIMMs — no DMI frame ever crosses the processor's memory channel.
 *
 * The link runs on a sim::ShardedExecutor, each card's Avalon side
 * on that card's shard. The DMA engine state rides the *source*
 * card's shard for each transfer. Cards on one shard (every 1-shard
 * socket) exchange lines as plain events at their arrival ticks.
 * Cards on two shards exchange lines and completions as executor
 * messages, which land at window edges — identically in serial and
 * parallel modes — so the executor's window must not exceed
 * lineLatency, or every line would wait for a barrier.
 */

#ifndef CONTUTTO_ACCEL_PCIE_PEER_HH
#define CONTUTTO_ACCEL_PCIE_PEER_HH

#include <functional>

#include "contutto/contutto_card.hh"
#include "sim/parallel.hh"

namespace contutto::accel
{

/** The peer link plus its two DMA engines. */
class PciePeerLink : public SimObject
{
  public:
    /** Link propagation per line. */
    static constexpr Tick lineLatency = nanoseconds(250);

    /**
     * Card A lives on shard @p shardA of @p exec, card B on
     * @p shardB. @throw FatalError when the shards differ and the
     * executor's window exceeds lineLatency.
     */
    PciePeerLink(const std::string &name, sim::ShardedExecutor &exec,
                 unsigned shardA, unsigned shardB,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 fpga::ContuttoCard &cardA, fpga::ContuttoCard &cardB);

    /**
     * DMA @p bytes from @p src on card @p src_card (0 or 1) to
     * @p dst on the other card. One transfer at a time.
     */
    void transfer(unsigned src_card, Addr src, Addr dst,
                  std::uint64_t bytes, std::function<void()> done);

    bool busy() const { return busy_; }

    struct PeerStats
    {
        stats::Scalar transfers;
        stats::Scalar bytesMoved;
    };

    const PeerStats &peerStats() const { return stats_; }

  private:
    void pump();
    void lineArrived(std::uint64_t index, const dmi::CacheLine &data);

    unsigned shardOf(unsigned card) const
    {
        return card == 0 ? shardA_ : shardB_;
    }
    /** The queue the current transfer's engine state lives on. */
    EventQueue &engineQueue() { return exec_.queue(shardOf(srcCard_)); }

    bus::AvalonBus::Port *portA_;
    bus::AvalonBus::Port *portB_;
    sim::ShardedExecutor &exec_;
    unsigned shardA_;
    unsigned shardB_;

    bool busy_ = false;
    unsigned srcCard_ = 0;
    Addr src_ = 0;
    Addr dst_ = 0;
    std::uint64_t totalLines_ = 0;
    std::uint64_t nextRead_ = 0;
    std::uint64_t writesDone_ = 0;
    unsigned inFlight_ = 0;
    Tick linkFreeAt_ = 0;
    std::function<void()> done_;
    PeerStats stats_;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_PCIE_PEER_HH
