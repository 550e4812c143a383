/**
 * @file
 * The DMI link layer: sequence numbering, ACKs, and frame replay.
 *
 * The DMI protocol's inner loop (paper §2.3) is a continuous flow of
 * frames with piggy-backed ACKs: every frame carries a sequence ID
 * and a CRC; each correctly received frame is acknowledged by
 * inserting the ACK into a frame travelling the opposite direction;
 * a missing ACK triggers automatic replay from a point derived from
 * the Frame Round Trip Latency, with no explicit NAK.
 *
 * LinkEndpoint implements one end. The processor side is
 * LinkEndpoint<DownFrame, UpFrame>; the memory-buffer side (the MBI
 * logic on Centaur/ConTutto) is LinkEndpoint<UpFrame, DownFrame>.
 * ConTutto's replay "freeze" workaround (§3.3(ii)) — repeatedly
 * retransmitting the last upstream frame until the FPGA is ready to
 * switch to the replay buffer — is modelled by the freezeRepeats
 * parameter.
 *
 * Instead of simulating every idle frame slot (which would cost an
 * event per 2 ns), idle slots are abstracted: ACKs piggy-back on
 * payload frames when there are any, and otherwise an out-of-stream
 * idle frame carries the ACK after a short coalescing delay.
 */

#ifndef CONTUTTO_DMI_LINK_HH
#define CONTUTTO_DMI_LINK_HH

#include <array>
#include <functional>

#include "dmi/channel.hh"
#include "dmi/frame.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"

namespace contutto::dmi
{

/** Modular distance from @p b forward to @p a in 8-bit seq space. */
constexpr std::uint8_t
seqDistance(std::uint8_t a, std::uint8_t b)
{
    return std::uint8_t(a - b);
}

/**
 * One end of a DMI link; see file comment.
 *
 * @tparam TxF frame type this endpoint transmits.
 * @tparam RxF frame type this endpoint receives.
 */
template <typename TxF, typename RxF>
class LinkEndpoint : public SimObject, private FrameReceiver
{
  public:
    struct Params
    {
        /**
         * Transmit-side pipeline depth in own-clock cycles (frame
         * mux, scrambler, serializer feed).
         */
        unsigned txProcCycles = 1;
        /**
         * Receive-side pipeline depth in own-clock cycles: gearbox
         * capture + CRC check stages. ConTutto base: phase-offset
         * capture without the RX FIFO plus a 2-stage CRC (§3.3(ii)).
         */
        unsigned rxProcCycles = 3;
        /**
         * Number of times the last frame is re-sent before the
         * replay buffer takes over (ConTutto freeze workaround).
         */
        unsigned freezeRepeats = 0;
    };

    /** Max unacked frames before new sends queue internally. */
    static constexpr unsigned windowLimit = 120;
    static_assert(windowLimit > 0 && windowLimit < 128);

    LinkEndpoint(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 const Params &params, DmiChannel &txChannel,
                 DmiChannel &rxChannel);

    ~LinkEndpoint() override { resetLink(); }

    /** Queue a payload frame; the link adds seq/ACK and replays it
     *  automatically on error. */
    void sendFrame(TxF frame);

    /** Send a training frame (out-of-stream, no seq/replay). */
    void sendTrainFrame(std::uint32_t sig);

    /** Upper-layer delivery of in-order, CRC-clean payload frames. */
    std::function<void(const RxF &)> onFrame;

    /** Training-frame delivery (bypasses the sequence protocol). */
    std::function<void(std::uint32_t)> onTrainSig;

    /**
     * Invoked each time a missing ACK triggers a replay; the RAS
     * link watchdog subscribes here to detect replay storms.
     */
    std::function<void()> onReplay;

    /**
     * Clear sequence counters, replay state and assemblers; called
     * when training completes and frames start flowing.
     */
    void resetLink();

    /** Frames sent and not yet acknowledged. */
    unsigned unackedFrames() const { return unacked_; }

    /** True when no frames are queued or awaiting ACK. */
    bool quiescent() const
    {
        return unacked_ == 0 && sendQueue_.empty();
    }

    const Params &params() const { return params_; }

    struct LinkStats
    {
        stats::Scalar txPayloadFrames;
        stats::Scalar rxPayloadFrames;
        stats::Scalar rxCrcErrors;
        stats::Scalar rxSeqDrops;
        stats::Scalar replaysTriggered;
        stats::Scalar framesReplayed;
        stats::Scalar idleAcksSent;
    };

    const LinkStats &linkStats() const { return stats_; }

  private:
    struct ReplaySlot
    {
        WireFrame wire;
        Tick sentAt = 0;
        bool valid = false;
        /** Trace id of the frame kept here, for replay attribution. */
        TraceId traceId = noTraceId;
    };

    void pump();             ///< Drain sendQueue_ into the channel.
    /** rxChannel_ calls this rxProcCycles after a frame lands. */
    void processRx(const WireFrame &wire, bool intact) override;
    void handleAck(std::uint8_t ackSeq);
    void scheduleAckCarrier();
    void emitIdleAck();
    void checkAckTimeout();
    void triggerReplay();
    void armTimeout();

    Params params_;
    DmiChannel &txChannel_;
    DmiChannel &rxChannel_;

    // TX state
    std::uint8_t nextSeq_ = 0;
    std::uint8_t lastAcked_ = 0xFF; ///< seq of newest acked frame.
    unsigned unacked_ = 0;
    std::array<ReplaySlot, 256> replayBuf_{};
    sim::Ring<TxF> sendQueue_;
    WireFrame lastSentWire_{};
    bool anySent_ = false;

    // RX state
    std::uint8_t expectedSeq_ = 0;
    std::uint8_t lastGoodSeq_ = 0xFF;
    bool haveReceived_ = false;
    bool ackPending_ = false;

    EventFunctionWrapper pumpEvent_;
    EventFunctionWrapper ackEvent_;
    EventFunctionWrapper timeoutEvent_;

    LinkStats stats_;
};

/** The processor (master) side of the link. */
using HostLink = LinkEndpoint<DownFrame, UpFrame>;
/** The memory-buffer (slave) side: Centaur's or ConTutto's MBI. */
using BufferLink = LinkEndpoint<UpFrame, DownFrame>;

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_LINK_HH
