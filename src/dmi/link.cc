#include "dmi/link.hh"

#include <type_traits>

#include "sim/span.hh"

namespace contutto::dmi
{

namespace
{

/** Missing-ACK detection horizon. */
constexpr Tick ackTimeout = nanoseconds(400);
/** Delay before an idle frame is emitted to carry an ACK, cycles. */
constexpr unsigned ackCoalesceCycles = 1;

} // namespace

template <typename TxF, typename RxF>
LinkEndpoint<TxF, RxF>::LinkEndpoint(const std::string &name,
                                     EventQueue &eq,
                                     const ClockDomain &domain,
                                     stats::StatGroup *parent,
                                     const Params &params,
                                     DmiChannel &txChannel,
                                     DmiChannel &rxChannel)
    : SimObject(name, eq, domain, parent), params_(params),
      txChannel_(txChannel), rxChannel_(rxChannel),
      pumpEvent_([this] { pump(); }, name + ".pump"),
      ackEvent_([this] { emitIdleAck(); }, name + ".ack"),
      timeoutEvent_([this] { checkAckTimeout(); }, name + ".timeout"),
      stats_{{this, "txPayloadFrames", "payload frames transmitted"},
             {this, "rxPayloadFrames", "payload frames accepted"},
             {this, "rxCrcErrors", "frames dropped for bad CRC"},
             {this, "rxSeqDrops", "frames dropped for seq mismatch"},
             {this, "replaysTriggered", "replay operations started"},
             {this, "framesReplayed", "frames retransmitted"},
             {this, "idleAcksSent", "out-of-stream ACK frames sent"}}
{
    // Gearbox capture and CRC pipeline in this endpoint's domain.
    rxChannel_.setReceiver(*this, domain, params_.rxProcCycles);
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::sendFrame(TxF frame)
{
    sendQueue_.push_back(std::move(frame));
    if (!pumpEvent_.scheduled())
        scheduleClocked(&pumpEvent_, params_.txProcCycles);
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::sendTrainFrame(std::uint32_t sig)
{
    TxF f;
    f.type = FrameType::train;
    f.trainSig = sig;
    f.seqValid = false;
    // Training frames still traverse the TX pipeline.
    OneShotEvent::schedule(eventq(),
                           clockEdge(params_.txProcCycles),
                           [this, f] { txChannel_.send(f.serialize()); });
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::pump()
{
    bool sent_any = false;
    while (!sendQueue_.empty() && unacked_ < windowLimit) {
        TxF f = sendQueue_.pop_front();

        f.seq = nextSeq_;
        f.seqValid = true;
        if (haveReceived_) {
            f.ackValid = true;
            f.ackSeq = lastGoodSeq_;
            ackPending_ = false; // payload frame carries the ACK
        }

        WireFrame wire = f.serialize();
        ReplaySlot &slot = replayBuf_[nextSeq_];
        ct_assert(!slot.valid); // window < 128 guarantees this
        slot.wire = wire;
        slot.sentAt = curTick();
        slot.valid = true;
        slot.traceId = f.traceId;

        // The wire-transit span covers serialization, channel flight
        // and the receiver's RX pipeline; the receiving layer closes
        // it. open() is idempotent, so the multiple frames of one
        // command/response share a single span starting at the first
        // frame's departure.
        if (span::enabled() && f.traceId != noTraceId) {
            if constexpr (std::is_same_v<TxF, DownFrame>)
                span::open(f.traceId, "dmi.down", curTick());
            else
                span::open(f.traceId, "dmi.up", curTick());
        }

        nextSeq_ = std::uint8_t(nextSeq_ + 1);
        ++unacked_;
        lastSentWire_ = wire;
        anySent_ = true;
        ++stats_.txPayloadFrames;
        txChannel_.send(wire);
        sent_any = true;
    }
    if (sent_any)
        armTimeout();
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::processRx(const WireFrame &wire, bool intact)
{
    // Every frame on the link comes from serialize(), so an intact
    // one still carries its seal and needs no CRC recompute.
    RxF f;
    if (!RxF::deserialize(wire, f, !intact)) {
        // Bad CRC: drop silently; the transmitter's missing-ACK
        // timeout will trigger a replay (paper §2.3).
        ++stats_.rxCrcErrors;
        return;
    }

    if (f.type == FrameType::train) {
        if (onTrainSig)
            onTrainSig(f.trainSig);
        return;
    }

    if (f.ackValid)
        handleAck(f.ackSeq);

    if (!f.seqValid)
        return; // out-of-stream idle ACK carrier

    if (f.seq == expectedSeq_) {
        lastGoodSeq_ = f.seq;
        haveReceived_ = true;
        expectedSeq_ = std::uint8_t(expectedSeq_ + 1);
        ++stats_.rxPayloadFrames;
        scheduleAckCarrier();
        if (f.type != FrameType::idle && onFrame)
            onFrame(f);
    } else {
        // Out-of-order: either loss aftermath or a replay duplicate.
        // Drop it and re-ACK our last good frame so the transmitter
        // re-synchronizes.
        ++stats_.rxSeqDrops;
        if (haveReceived_)
            scheduleAckCarrier();
    }
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::handleAck(std::uint8_t ack_seq)
{
    std::uint8_t dist = seqDistance(ack_seq, lastAcked_);
    if (dist == 0 || dist > unacked_)
        return; // duplicate or stale ACK
    for (std::uint8_t i = 0; i < dist; ++i) {
        lastAcked_ = std::uint8_t(lastAcked_ + 1);
        replayBuf_[lastAcked_].valid = false;
    }
    unacked_ -= dist;
    if (unacked_ == 0) {
        if (timeoutEvent_.scheduled())
            eventq().deschedule(&timeoutEvent_);
    } else {
        armTimeout();
    }
    if (!sendQueue_.empty() && !pumpEvent_.scheduled())
        scheduleClocked(&pumpEvent_, 0);
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::scheduleAckCarrier()
{
    ackPending_ = true;
    if (!ackEvent_.scheduled())
        scheduleClocked(&ackEvent_, ackCoalesceCycles);
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::emitIdleAck()
{
    if (!ackPending_)
        return; // a payload frame carried the ACK meanwhile
    ackPending_ = false;
    TxF f;
    f.type = FrameType::idle;
    f.seqValid = false;
    f.ackValid = haveReceived_;
    f.ackSeq = lastGoodSeq_;
    txChannel_.send(f.serialize());
    ++stats_.idleAcksSent;
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::armTimeout()
{
    if (unacked_ == 0)
        return;
    std::uint8_t oldest = std::uint8_t(lastAcked_ + 1);
    ct_assert(replayBuf_[oldest].valid);
    Tick deadline = replayBuf_[oldest].sentAt + ackTimeout;
    if (deadline <= curTick())
        deadline = curTick() + 1;
    eventq().reschedule(&timeoutEvent_, deadline);
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::checkAckTimeout()
{
    if (unacked_ == 0)
        return;
    std::uint8_t oldest = std::uint8_t(lastAcked_ + 1);
    if (curTick() >= replayBuf_[oldest].sentAt + ackTimeout) {
        triggerReplay();
    } else {
        armTimeout();
    }
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::triggerReplay()
{
    ++stats_.replaysTriggered;
    if (onReplay)
        onReplay();

    // ConTutto freeze workaround: repeat the last upstream frame so
    // the processor does not misidentify the start of replay while
    // the FPGA switches its datapath over to the replay buffer.
    if (params_.freezeRepeats > 0 && anySent_)
        for (unsigned i = 0; i < params_.freezeRepeats; ++i)
            txChannel_.send(lastSentWire_);

    for (std::uint8_t s = std::uint8_t(lastAcked_ + 1); s != nextSeq_;
         s = std::uint8_t(s + 1)) {
        ReplaySlot &slot = replayBuf_[s];
        ct_assert(slot.valid);
        slot.sentAt = curTick();
        if (span::enabled() && slot.traceId != noTraceId)
            span::event(slot.traceId, "dmi.replay", curTick());
        txChannel_.send(slot.wire);
        ++stats_.framesReplayed;
    }
    armTimeout();
}

template <typename TxF, typename RxF>
void
LinkEndpoint<TxF, RxF>::resetLink()
{
    nextSeq_ = 0;
    lastAcked_ = 0xFF;
    unacked_ = 0;
    for (ReplaySlot &s : replayBuf_)
        s.valid = false;
    sendQueue_.clear();
    anySent_ = false;
    expectedSeq_ = 0;
    lastGoodSeq_ = 0xFF;
    haveReceived_ = false;
    ackPending_ = false;
    if (pumpEvent_.scheduled())
        eventq().deschedule(&pumpEvent_);
    if (ackEvent_.scheduled())
        eventq().deschedule(&ackEvent_);
    if (timeoutEvent_.scheduled())
        eventq().deschedule(&timeoutEvent_);
}

template class LinkEndpoint<DownFrame, UpFrame>;
template class LinkEndpoint<UpFrame, DownFrame>;

} // namespace contutto::dmi
