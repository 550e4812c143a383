/**
 * @file
 * One DMI memory channel: the nest-side port, the channel pair, and
 * the buffer (Centaur or ConTutto) with its DIMMs.
 *
 * A POWER8 socket has eight of these (paper Figure 1); Power8System
 * wraps a single channel for the common single-channel experiments,
 * and MultiSlotSystem composes up to eight with the plug rules of
 * §3.1.
 */

#ifndef CONTUTTO_CPU_CHANNEL_HH
#define CONTUTTO_CPU_CHANNEL_HH

#include <memory>
#include <vector>

#include "centaur/centaur.hh"
#include "contutto/contutto_card.hh"
#include "cpu/host_port.hh"
#include "dmi/training.hh"
#include "firmware/error_log.hh"
#include "mem/device.hh"
#include "ras/scrubber.hh"
#include "ras/watchdog.hh"

namespace contutto::cpu
{

/** Which memory buffer sits in the DMI slot. */
enum class BufferKind
{
    centaur,
    contutto,
};

/**
 * The lanes of one channel direction, the only place link geometry
 * is decided: 14 lanes downstream or 21 upstream, the buffer kind's
 * unit interval (125 ps = 8 Gb/s for ConTutto, 104 ps ~ 9.6 Gb/s for
 * Centaur) and 1 ns of board flight. MemoryChannel builds its lanes
 * from it (adding the error rate and seed), and
 * MultiSlotSystem::deriveWindow sizes the socket's lookahead from it.
 */
dmi::DmiChannel::Params linkParams(BufferKind buffer, bool upstream);

/** Description of one DIMM plugged behind the buffer. */
struct DimmSpec
{
    mem::MemTech tech = mem::MemTech::dram;
    std::uint64_t capacity = 4 * GiB;
    mem::MramDevice::Junction junction =
        mem::MramDevice::Junction::pMTJ;
    mem::NvdimmDevice::Params nvdimm{};
};

/** Clock domains shared by the channels of a socket. */
struct SocketClocks
{
    ClockDomain nest{"nest", 500};          // 2 GHz
    ClockDomain fabric{"fabric", 4000};     // 250 MHz
    ClockDomain centaurClk{"centaurClk", 500};
    ClockDomain ddr{"ddr", 1500};           // DDR3-1333
};

/** Parameters of one channel. */
struct ChannelParams
{
    BufferKind buffer = BufferKind::contutto;
    centaur::CentaurModel::Config centaurConfig =
        centaur::CentaurModel::optimized();
    fpga::ContuttoCard::Params cardParams{};
    std::vector<DimmSpec> dimms{DimmSpec{}, DimmSpec{}};
    double channelErrorRate = 0.0;
    dmi::LinkTrainer::Params training{};
    /** Fixed processor-side latency per memory command. */
    Tick nestOverhead = nanoseconds(44);
    /**
     * FPGA fabric clock period, picking the link-to-fabric gearbox
     * ratio: 4000 ps = 250 MHz = 32:1 at 8 Gb/s (the shipped
     * design); 2000 ps = 500 MHz = 16:1; 8000 ps = 125 MHz = 64:1.
     * Honoured by Power8System (single-channel studies); the
     * multi-slot socket shares one fabric domain across channels.
     */
    Tick fabricPeriod = 4000;
    std::uint64_t seed = 12345;

    /** Optional RAS machinery layered on the channel. */
    struct RasParams
    {
        /** Patrol-scrub every DIMM image. */
        bool scrubEnabled = false;
        ras::PatrolScrubber::Params scrub{};
        /** Watch both link directions for replay storms. */
        bool watchdogEnabled = false;
    };
    RasParams ras{};
};

/** The assembled channel. */
class MemoryChannel : public stats::StatGroup
{
  public:
    MemoryChannel(const std::string &name, EventQueue &eq,
                  const SocketClocks &clocks,
                  stats::StatGroup *parent,
                  const ChannelParams &params);
    ~MemoryChannel() override;

    /** Event-driven training; does not step the queue. */
    void trainAsync(
        std::function<void(const dmi::TrainingResult &)> cb);

    HostMemPort &port() { return *port_; }
    dmi::HostLink &hostLink() { return *hostLink_; }
    const dmi::TrainingResult &trainingResult() const
    {
        return trainResult_;
    }

    fpga::ContuttoCard *card() { return card_.get(); }
    centaur::CentaurModel *centaurBuffer() { return centaur_.get(); }

    mem::MemoryDevice &dimm(unsigned i) { return *devices_.at(i); }
    unsigned numDimms() const { return unsigned(devices_.size()); }
    std::uint64_t memoryCapacity() const;

    dmi::DmiChannel &downChannel() { return *down_; }
    dmi::DmiChannel &upChannel() { return *up_; }

    /** The service processor's log for this channel's hardware. */
    firmware::ErrorLog &errorLog() { return errorLog_; }

    /** Patrol scrubber for DIMM @p i (null unless RAS enabled). */
    ras::PatrolScrubber *scrubber(unsigned i)
    {
        return i < scrubbers_.size() ? scrubbers_[i].get() : nullptr;
    }

    /** Replay-storm watchdog (null unless RAS enabled). */
    ras::LinkWatchdog *watchdog() { return watchdog_.get(); }

    /** The link trainer (for checkpointing its RNG stream). */
    dmi::LinkTrainer &trainer() { return *trainer_; }

    /** @{ Functional access honouring the buffer's interleave. */
    void functionalWrite(Addr addr, std::size_t len,
                         const std::uint8_t *data);
    void functionalRead(Addr addr, std::size_t len,
                        std::uint8_t *data);
    /** A fast-forwarded store (mem::MemImage::warmWrite). */
    void warmWrite(Addr addr, std::size_t len, const std::uint8_t *data);
    /** @} */

    /** True when no command or frame is in flight. */
    bool quiescent() const;

    const ChannelParams &params() const { return params_; }

  private:
    using ImageStore = void (mem::MemImage::*)(Addr, std::size_t,
                                               const std::uint8_t *);
    /** Apply @p store to each line's slice on its device. */
    void storeLines(Addr addr, std::size_t len, const std::uint8_t *data,
                    ImageStore store);

    ChannelParams params_;
    EventQueue &eq_;
    std::unique_ptr<dmi::DmiChannel> down_;
    std::unique_ptr<dmi::DmiChannel> up_;
    std::unique_ptr<dmi::HostLink> hostLink_;
    std::unique_ptr<dmi::BufferLink> bufferLink_;
    std::vector<std::unique_ptr<mem::MemoryDevice>> devices_;
    std::vector<std::unique_ptr<mem::Ddr3Controller>>
        centaurControllers_;
    std::unique_ptr<fpga::ContuttoCard> card_;
    std::unique_ptr<centaur::CentaurModel> centaur_;
    std::unique_ptr<HostMemPort> port_;
    std::unique_ptr<dmi::LinkTrainer> trainer_;
    dmi::TrainingResult trainResult_;
    firmware::ErrorLog errorLog_;
    std::vector<std::unique_ptr<ras::PatrolScrubber>> scrubbers_;
    std::unique_ptr<ras::LinkWatchdog> watchdog_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_CHANNEL_HH
