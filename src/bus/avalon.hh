/**
 * @file
 * The FPGA's on-chip interconnect (an Avalon-MM model).
 *
 * ConTutto connects the MBS to the memory controllers via Altera's
 * Avalon bus, with two read and two write ports because MBS handles
 * two DMI frames per cycle; the core-to-DDR clock-domain crossing
 * happens inside the bus, and new slaves (other memory controllers,
 * PCIe, accelerators) plug in without touching the rest of the
 * design (paper §3.3(iv)).
 *
 * Masters create ports; each port issues at most one transaction per
 * fabric cycle and pays the CDC latency each way. Slaves register an
 * address range and receive requests with slave-relative addresses.
 */

#ifndef CONTUTTO_BUS_AVALON_HH
#define CONTUTTO_BUS_AVALON_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"

namespace contutto::bus
{

/** A half-open address range [base, base + size). */
struct AddressRange
{
    Addr base = 0;
    std::uint64_t size = 0;

    bool
    contains(Addr a, std::size_t len = 1) const
    {
        return a >= base && a + len <= base + size;
    }
};

/** Anything that can be mapped on the bus. */
class AvalonSlave
{
  public:
    virtual ~AvalonSlave() = default;

    /**
     * Serve a request. @c req->addr is slave-relative. Completion is
     * signalled through @c req->onDone (possibly synchronously).
     */
    virtual void access(const mem::MemRequestPtr &req) = 0;

    /** Debug name. */
    virtual std::string slaveName() const = 0;
};

/** The interconnect. */
class AvalonBus : public SimObject
{
  public:
    AvalonBus(const std::string &name, EventQueue &eq,
              const ClockDomain &domain, stats::StatGroup *parent);

    /** Map @p slave at @p range; ranges must not overlap. */
    void attach(AvalonSlave &slave, const AddressRange &range);

    /** A master-side port; create one per independent requester. */
    class Port
    {
      public:
        /**
         * Queue a request with a bus-global address.
         * @pre canAccept().
         */
        void submit(const mem::MemRequestPtr &req);

        bool canAccept() const;

        /** Requests queued in this port (not yet dispatched). */
        std::size_t queued() const { return queue_.size(); }

        const std::string &name() const { return name_; }

        ~Port();

      private:
        friend class AvalonBus;
        Port(AvalonBus &bus, std::string name);

        void pump();

        AvalonBus &bus_;
        std::string name_;
        sim::Ring<mem::MemRequestPtr> queue_;
        Tick nextIssueAt_ = 0;
        std::unique_ptr<EventFunctionWrapper> pumpEvent_;
    };

    /** Create a new master port (ConTutto MBS makes 2R + 2W). */
    Port &createPort(const std::string &name);

    struct BusStats
    {
        stats::Scalar transactions;
        stats::Scalar bytes;
        stats::Scalar unmappedAccesses;
    };

    const BusStats &busStats() const { return stats_; }

  private:
    struct Mapping
    {
        AvalonSlave *slave;
        AddressRange range;
    };

    void dispatch(const mem::MemRequestPtr &req);

    std::vector<Mapping> mappings_;
    std::vector<std::unique_ptr<Port>> ports_;
    BusStats stats_;
};

} // namespace contutto::bus

#endif // CONTUTTO_BUS_AVALON_HH
