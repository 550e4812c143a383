/**
 * @file
 * One direction of a DMI channel: the physical lanes.
 *
 * A channel serializes frames across @c lanes differential pairs at a
 * fixed bit rate. Serialization time for a frame is
 * bits / lanes * bitPeriod — e.g. a 224-bit downstream frame on 14
 * lanes at 8 Gb/s takes 16 UI = 2 ns, which is exactly two frames per
 * 250 MHz fabric cycle (paper §3.3(i)). The channel scrambles data at
 * the transmitter and descrambles at the receiver, and can inject
 * bit errors (random BER or forced) between the two, which the frame
 * CRC must catch.
 *
 * One event per frame. Serialization is FIFO and the flight time and
 * the receiver's pipeline depth are fixed, so send() knows each
 * frame's serialization start and end and the tick its receiver
 * processes it. Frames wait in a FIFO ring, and one persistent event
 * fires at the head's receive tick and hands every frame due then to
 * the receiver (FrameReceiver::processRx).
 *
 * What happens on the wire is still decided per frame at the ticks
 * the lanes would act, just lazily: scrambling, corruption and lane
 * state at the frame's serialization start; descrambling, drop and
 * the carried counters at its end. settle() applies these decisions,
 * in FIFO order, up to a tick. It runs when frames are received, when
 * a frame starts at send(), before every fault call and before every
 * stats read (the StatGroup pre-read hook and channelStats()). Fault
 * calls and reads therefore see the same frames as when each decision
 * had its own event: a caller inside an event at tick T sees
 * decisions before T only (the per-frame events at T were queued
 * later than any fault or stats event scheduled in advance), and a
 * caller between run() calls sees decisions at T too.
 *
 * The ring holds frames in plain bytes. Scrambling is XOR with a
 * keystream, so a frame's start records the transmit keystream's
 * position and jumps the LFSR over the frame (Scrambler::jump), bit
 * errors flip plain bits, and a frame's end, when the receive
 * keystream is at the recorded position, only jumps the receive
 * LFSR: plain ^ K ^ E ^ K == plain ^ E. Out of step (after
 * desyncRxScrambler(), or a reseed with frames on the lanes) the
 * frame takes the transmit keystream and then the receive one, so
 * the receiver gets the bytes a real scrambler pair would deliver.
 *
 * The receiver learns whether a frame arrived intact: byte for byte
 * what was given to send(). The contract: a link endpoint sends only
 * frames sealed by serialize(), so an intact frame's CRC holds and
 * the endpoint does not recompute it; a frame the lanes touched is
 * checked as before. Whoever sends unsealed bytes must not read
 * intact as CRC-clean.
 */

#ifndef CONTUTTO_DMI_CHANNEL_HH
#define CONTUTTO_DMI_CHANNEL_HH

#include <array>
#include <vector>

#include "dmi/frame.hh"
#include "dmi/scrambler.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace contutto::dmi
{

/** The receiving end of a channel (a link endpoint's RX logic). */
class FrameReceiver
{
  public:
    /**
     * Gearbox capture and CRC check of one received frame. @p wire
     * lives in the channel's ring: read it before anything that may
     * send on the same channel. @p intact is true exactly when
     * @p wire equals the frame given to send(): no error struck it
     * and the scramblers were in step (see the file comment).
     */
    virtual void processRx(const WireFrame &wire, bool intact) = 0;

  protected:
    ~FrameReceiver() = default;
};

/** A unidirectional bundle of DMI lanes carrying WireFrames. */
class DmiChannel : public SimObject
{
  public:
    struct Params
    {
        unsigned lanes = 14;
        /** One unit interval; 125 ps = 8 Gb/s (ConTutto speed). */
        Tick bitPeriod = 125;
        /** Time of flight over the board trace. */
        Tick flightTime = nanoseconds(1);
        /** Probability that a carried frame takes a bit flip. */
        double frameErrorRate = 0.0;
        /** RNG seed for error injection. */
        std::uint64_t seed = 1;
    };

    /** Spare lanes available for hard-failure repair. */
    static constexpr unsigned spareLanes = 1;

    DmiChannel(const std::string &name, EventQueue &eq,
               const ClockDomain &domain, stats::StatGroup *parent,
               const Params &params);

    ~DmiChannel() override;

    /**
     * Attach the receiver. It processes a frame on the edge of
     * @p domain @p rxProcCycles cycles after the frame lands.
     */
    void setReceiver(FrameReceiver &receiver, const ClockDomain &domain,
                     unsigned rxProcCycles);

    /** Queue a frame for transmission; the channel self-paces. */
    void send(const WireFrame &frame);

    /** Serialization time for a frame of @p bytes bytes. */
    static Tick
    serializationTime(const Params &params, std::size_t bytes)
    {
        std::size_t bits = bytes * 8;
        std::size_t ui = (bits + params.lanes - 1) / params.lanes;
        return Tick(ui) * params.bitPeriod;
    }
    Tick
    serializationTime(std::size_t bytes) const
    {
        return serializationTime(params_, bytes);
    }

    /** Force bit corruption of the next @p n frames (deterministic). */
    void
    corruptNext(unsigned n)
    {
        settleNow();
        forcedCorruptions_ += n;
    }

    /**
     * Force a contiguous burst error of @p nbits starting at bit
     * @p startBit of the next frame. A burst longer than the frame
     * carries into the following frame at bit 0, modelling a noise
     * event spanning a frame boundary; every touched frame counts as
     * corrupted.
     */
    void
    corruptBurst(unsigned startBit, unsigned nbits)
    {
        settleNow();
        burstStartBit_ = startBit;
        burstBitsLeft_ += nbits;
    }

    /**
     * Silently drop the next @p n frames at the receiver (a lost
     * ACK / lost frame fault). The rx descrambler still advances so
     * the keystream stays aligned, as real per-slot descrambling
     * hardware would.
     */
    void
    dropNext(unsigned n)
    {
        settleNow();
        dropBudget_ += n;
    }

    /** Adjust the random bit-error rate at run time (lane sparing). */
    void
    setFrameErrorRate(double rate)
    {
        settleNow();
        params_.frameErrorRate = rate;
    }
    double frameErrorRate() const { return params_.frameErrorRate; }

    /**
     * @{ Lane sparing (paper 2.2: the link carries extra signals
     * for "clocking, sparing and calibration"). The first hard lane
     * failure is absorbed by the spare lane with no functional or
     * performance impact; further failures leave the bundle
     * degraded and every frame arrives damaged until repair.
     */
    void failLane(unsigned lane);
    void repairAllLanes();
    bool spareInUse() const { return lanesFailed_ >= 1; }
    bool degraded() const { return lanesFailed_ > spareLanes; }
    /** @} */

    /** Reset both scramblers to a common seed (end of training). */
    void reseedScramblers(std::uint16_t seed = 0xFFFF);

    /** Desync the receive scrambler only (fault-injection tests). */
    void desyncRxScrambler();

    /** Raw payload bandwidth in bytes/second at 100% utilization. */
    double
    rawBandwidth() const
    {
        return double(params_.lanes) / (8.0 * 1e-12
                                        * double(params_.bitPeriod));
    }

    /** Fraction of wall-clock the lanes were serializing so far. */
    double utilization() const;

    struct ChannelStats
    {
        stats::Scalar framesCarried;
        stats::Scalar bytesCarried;
        stats::Scalar framesCorrupted;
        stats::Scalar framesDropped;
        stats::Scalar spareActivations;
    };

    /** The counters, settled to now. */
    const ChannelStats &
    channelStats() const
    {
        preRead();
        return stats_;
    }

    /** The error-injection RNG stream (checkpointed by campaigns so
     *  a resumed run draws the same fault positions), settled to
     *  now. */
    Rng &
    rng()
    {
        settleNow();
        return rng_;
    }

  protected:
    void preRead() const override;

  private:
    /** A frame between send() and its receiver. */
    struct InFlight
    {
        /** Plain bytes plus any bit errors; see the file comment. */
        WireFrame wire;
        /** Transmit keystream state at the serialization start. */
        std::uint16_t txKey = 0;
        bool hit = false;    ///< A bit error struck it.
        bool intact = false; ///< Delivered as sent; set at the end.
        bool dropped = false;
        Tick start = 0; ///< Serialization starts.
        Tick end = 0;   ///< Serialization ends.
        Tick rx = 0;    ///< The receiver processes it.
        /** The bytes given to send(), kept once an error struck. */
        std::array<std::uint8_t, upFrameBytes> sent{};
    };

    InFlight &slot(std::uint64_t i) { return ring_[i & ringMask_]; }

    /**
     * Apply the start decisions of frames starting before @p t and
     * the end decisions of frames ending before it; with
     * @p inclusive, also those at @p t.
     */
    void settle(Tick t, bool inclusive);
    /** settle() as seen by a caller now; see the file comment. */
    void
    settleNow()
    {
        settle(curTick(), !eventq().dispatching());
    }
    void settleStart(InFlight &f);
    void settleEnd(InFlight &f);
    /** The rx event: deliver every frame due now. */
    void receive();
    void grow();

    Params params_;
    FrameReceiver *receiver_ = nullptr;
    const ClockDomain *rxDomain_ = nullptr;
    unsigned rxProcCycles_ = 0;

    /**
     * FIFO ring of frames; the monotonic indices satisfy
     * head_ <= ended_ <= started_ <= tail_. [head_, ended_) await
     * delivery with every decision applied, [ended_, started_) are
     * on the lanes, [started_, tail_) are queued.
     */
    std::vector<InFlight> ring_;
    std::uint64_t ringMask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t ended_ = 0;
    std::uint64_t started_ = 0;
    std::uint64_t tail_ = 0;
    Tick busyUntil_ = 0;

    Tick busyTicks_ = 0;
    Tick createdAt_ = 0;
    Scrambler txScrambler_;
    Scrambler rxScrambler_;
    Rng rng_;
    unsigned forcedCorruptions_ = 0;
    unsigned burstStartBit_ = 0;
    unsigned burstBitsLeft_ = 0;
    unsigned dropBudget_ = 0;
    unsigned lanesFailed_ = 0;
    EventFunctionWrapper rxEvent_;
    ChannelStats stats_;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_CHANNEL_HH
