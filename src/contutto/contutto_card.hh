/**
 * @file
 * The ConTutto card: the paper's primary contribution, assembled.
 *
 * A ConTutto card plugs into a POWER8 DMI slot in place of a CDIMM
 * and implements the memory-buffer function in a Stratix V FPGA
 * (paper §3). This class wires the FPGA logic together:
 *
 *   DMI channels -> MBI (link layer with replay/freeze)
 *               -> MBS (frame decoders, 32 command engines)
 *               -> latency knob delay modules
 *               -> Avalon bus (CDC)
 *               -> one DDR3 soft controller per DIMM port
 *               -> the plugged memory devices (DRAM/MRAM/NVDIMM).
 *
 * Consecutive cache lines interleave across the DIMM ports.
 */

#ifndef CONTUTTO_CONTUTTO_CONTUTTO_CARD_HH
#define CONTUTTO_CONTUTTO_CONTUTTO_CARD_HH

#include <memory>
#include <vector>

#include "bus/avalon.hh"
#include "contutto/mbs.hh"
#include "dmi/channel.hh"
#include "dmi/link.hh"
#include "mem/ddr3_controller.hh"
#include "mem/line_interleave.hh"

namespace contutto::fpga
{

/** Routes line-interleaved accesses to the per-port controllers. */
class InterleavedMemSlave : public bus::AvalonSlave
{
  public:
    InterleavedMemSlave(std::vector<mem::Ddr3Controller *> ports,
                        mem::LineInterleave interleave)
        : ports_(std::move(ports)), interleave_(interleave)
    {}

    void
    access(const mem::MemRequestPtr &req) override
    {
        unsigned port = interleave_.portOf(req->addr);
        req->addr = interleave_.localAddr(req->addr);
        ports_[port]->submit(req);
    }

    std::string slaveName() const override { return "dimmPorts"; }

  private:
    std::vector<mem::Ddr3Controller *> ports_;
    mem::LineInterleave interleave_;
};

/** The assembled card. */
class ContuttoCard : public SimObject
{
  public:
    struct Params
    {
        /**
         * MBI link parameters. Defaults reflect the paper's timing
         * optimizations: FIFO-less receive capture plus a 2-stage
         * CRC (3 RX cycles), 1 TX cycle, and the 4-frame replay
         * freeze workaround.
         */
        dmi::BufferLink::Params mbi{
            /*txProcCycles=*/1,
            /*rxProcCycles=*/3,
            /*freezeRepeats=*/4,
        };
        Mbs::Params mbs;
        /**
         * Soft-IP DDR3 controller timing. The generated half-rate
         * FPGA controller is far slower than Centaur's hard ASIC
         * controller; its deep frontend is a major contributor to
         * ConTutto's 390 ns base latency (Table 3).
         */
        mem::Ddr3Controller::Params memctrl{
            /*frontendLatency=*/nanoseconds(105),
        };
    };

    /**
     * @param devices one memory device per DIMM port (the card has
     *        two DDR3 DIMM connectors; tests may use one).
     */
    ContuttoCard(const std::string &name, EventQueue &eq,
                 const ClockDomain &fabricDomain,
                 const ClockDomain &ddrDomain,
                 stats::StatGroup *parent, const Params &params,
                 dmi::DmiChannel &upChannel,
                 dmi::DmiChannel &downChannel,
                 std::vector<mem::MemoryDevice *> devices);

    /** The MBI link endpoint (for training and link stats). */
    dmi::BufferLink &mbi() { return mbi_; }

    /**
     * What losing the 12 V input does to the FPGA: link-layer state
     * and every in-flight command evaporate. The DIMMs' own story
     * (NVDIMM saves) is the PowerDomain's business, not the card's.
     */
    void
    powerReset()
    {
        mbi_.resetLink();
        mbs_->powerReset();
    }

    /** The MBS command logic (knob control, stats). */
    Mbs &mbs() { return *mbs_; }

    bus::AvalonBus &avalon() { return bus_; }

    mem::Ddr3Controller &controller(unsigned i)
    {
        return *controllers_.at(i);
    }

    unsigned numPorts() const { return unsigned(controllers_.size()); }

    /** Total memory behind the card. */
    std::uint64_t capacity() const { return capacity_; }

    /** True when the card has no command or response in flight. */
    bool
    quiescent() const
    {
        if (!mbs_->quiescent() || !mbi_.quiescent())
            return false;
        for (const auto &c : controllers_)
            if (c->pending() != 0)
                return false;
        return true;
    }

  private:
    dmi::BufferLink mbi_;
    bus::AvalonBus bus_;
    std::vector<std::unique_ptr<mem::Ddr3Controller>> controllers_;
    std::unique_ptr<InterleavedMemSlave> memSlave_;
    std::unique_ptr<Mbs> mbs_;
    std::uint64_t capacity_ = 0;
};

} // namespace contutto::fpga

#endif // CONTUTTO_CONTUTTO_CONTUTTO_CARD_HH
