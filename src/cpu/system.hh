/**
 * @file
 * A complete simulated POWER8 memory-channel system.
 *
 * Wraps one MemoryChannel (DMI channel pair + buffer + DIMMs) with
 * an owned event queue and the socket clock domains, runs link
 * training, and exposes the host port. Every single-channel
 * experiment in the paper runs on a system shaped like this; the
 * multi-channel organization of §2.1 is MultiSlotSystem.
 */

#ifndef CONTUTTO_CPU_SYSTEM_HH
#define CONTUTTO_CPU_SYSTEM_HH

#include "cpu/channel.hh"
#include "sim/event_stats.hh"
#include "sim/sampling.hh"

namespace contutto::cpu
{

/** The assembled single-channel system. */
class Power8System : public stats::StatGroup
{
  public:
    using Params = ChannelParams;

    explicit Power8System(const Params &params);
    ~Power8System() override;

    /** Run link training to completion; true on success. */
    bool train();

    /** Event-driven training for firmware flows; does not step the
     *  queue itself. */
    void
    trainAsync(std::function<void(const dmi::TrainingResult &)> cb)
    {
        channel_->trainAsync(std::move(cb));
    }

    EventQueue &eventq() { return eq_; }
    HostMemPort &port() { return channel_->port(); }
    dmi::HostLink &hostLink() { return channel_->hostLink(); }
    const dmi::TrainingResult &trainingResult() const
    {
        return channel_->trainingResult();
    }

    /** Non-null when the buffer is a ConTutto card. */
    fpga::ContuttoCard *card() { return channel_->card(); }
    /** Non-null when the buffer is the Centaur baseline. */
    centaur::CentaurModel *centaurBuffer()
    {
        return channel_->centaurBuffer();
    }

    mem::MemoryDevice &dimm(unsigned i) { return channel_->dimm(i); }
    unsigned numDimms() const { return channel_->numDimms(); }
    std::uint64_t memoryCapacity() const
    {
        return channel_->memoryCapacity();
    }

    dmi::DmiChannel &downChannel() { return channel_->downChannel(); }
    dmi::DmiChannel &upChannel() { return channel_->upChannel(); }

    /** @{ Functional (no-timing) access to memory contents. */
    void
    functionalWrite(Addr addr, std::size_t len,
                    const std::uint8_t *data)
    {
        channel_->functionalWrite(addr, len, data);
    }
    void
    functionalRead(Addr addr, std::size_t len, std::uint8_t *data)
    {
        channel_->functionalRead(addr, len, data);
    }
    /** @} */

    /**
     * Measure the averaged single-command read latency the way the
     * paper does for Tables 2/3: repeated dependent reads, mean of
     * issue-to-data plus the processor-side overhead.
     */
    double measureReadLatencyNs(unsigned samples = 64,
                                Addr stride = 4096, Addr base = 0);

    /**
     * Step the simulation until the host port is idle and the
     * buffer quiescent, or until @p timeout elapses.
     * @return true when idle was reached.
     */
    bool runUntilIdle(Tick timeout = milliseconds(100));

    /** Run for a fixed duration. */
    void runFor(Tick duration);

    const Params &params() const { return channel_->params(); }

    /** The channel itself (for multi-client wiring). */
    MemoryChannel &channel() { return *channel_; }

    /**
     * Switch workload runs on this system to sampled execution
     * (sim/sampling.hh): creates the per-run controller, wires its
     * functional-write hook into this system's memory image, and
     * publishes a "sampling" stats group. Hand the returned
     * controller to the workload driver's Params.sampler.
     */
    sim::SamplingController &
    enableSampling(const sim::SamplingConfig &cfg, std::uint64_t seed);

    /** The sampling controller; null when never enabled. */
    sim::SamplingController *sampler() { return sampler_.get(); }

    /** Clock domain getters for attaching extra components. */
    const ClockDomain &nestDomain() const { return clocks_.nest; }
    const ClockDomain &fabricDomain() const { return clocks_.fabric; }

  private:
    EventQueue eq_;
    EventCoreStats eqStats_;
    SocketClocks clocks_;
    std::unique_ptr<MemoryChannel> channel_;
    std::unique_ptr<sim::SamplingController> sampler_;
    std::unique_ptr<sim::SamplingStats> samplingStats_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_SYSTEM_HH
