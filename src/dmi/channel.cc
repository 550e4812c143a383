#include "dmi/channel.hh"

#include <algorithm>

namespace contutto::dmi
{

namespace
{

/** Initial ring capacity, a power of two; it doubles when full. */
constexpr std::size_t initialRingFrames = 64;

/** Advance @p s over one frame of @p len bytes without its data. */
void
jumpFrame(Scrambler &s, unsigned len)
{
    if (len == downFrameBytes)
        s.jump<downFrameBytes>();
    else
        s.jump<upFrameBytes>();
}

} // namespace

DmiChannel::DmiChannel(const std::string &name, EventQueue &eq,
                       const ClockDomain &domain,
                       stats::StatGroup *parent, const Params &params)
    : SimObject(name, eq, domain, parent), params_(params),
      ring_(initialRingFrames), ringMask_(initialRingFrames - 1),
      createdAt_(eq.curTick()), rng_(params.seed),
      // Reception precedes other work at the same edge: the frame
      // is data that same-tick consumers act on.
      rxEvent_([this] { receive(); }, name + ".rx",
               Event::clockPriority),
      stats_{{this, "framesCarried", "frames fully serialized"},
             {this, "bytesCarried", "payload bytes carried"},
             {this, "framesCorrupted", "frames hit by bit errors"},
             {this, "framesDropped", "frames lost before the receiver"},
             {this, "spareActivations", "hard failures spared"}}
{
    ct_assert(params_.lanes > 0 && params_.bitPeriod > 0);
}

DmiChannel::~DmiChannel()
{
    if (rxEvent_.scheduled())
        eventq().deschedule(&rxEvent_);
}

void
DmiChannel::setReceiver(FrameReceiver &receiver,
                        const ClockDomain &domain, unsigned rxProcCycles)
{
    ct_assert(head_ == tail_);
    receiver_ = &receiver;
    rxDomain_ = &domain;
    rxProcCycles_ = rxProcCycles;
}

void
DmiChannel::failLane(unsigned lane)
{
    ct_assert(lane < params_.lanes);
    settleNow();
    ++lanesFailed_;
    if (lanesFailed_ <= spareLanes) {
        // The spare takes over transparently; the service processor
        // would log this for predictive maintenance.
        ++stats_.spareActivations;
        warn("%s: lane %u failed; spare lane activated",
             name().c_str(), lane);
    } else {
        warn("%s: lane %u failed with no spare left; bundle "
             "degraded", name().c_str(), lane);
    }
}

void
DmiChannel::repairAllLanes()
{
    settleNow();
    lanesFailed_ = 0;
}

void
DmiChannel::send(const WireFrame &frame)
{
    ct_assert(frame.len == downFrameBytes || frame.len == upFrameBytes);
    if (tail_ - head_ == ring_.size())
        grow();
    const Tick now = curTick();
    InFlight &f = slot(tail_++);
    f.wire = frame;
    f.start = std::max(now, busyUntil_);
    f.end = f.start + serializationTime(frame.len);
    const Tick landed = f.end + params_.flightTime;
    f.rx = rxDomain_ ? rxDomain_->edgeAfter(landed, rxProcCycles_)
                     : landed;
    f.hit = false;
    f.dropped = false;
    busyUntil_ = f.end;
    // A frame that starts now is decided now, and the frame before
    // it, if any, has ended.
    if (f.start == now)
        settle(now, true);
    if (!rxEvent_.scheduled())
        eventq().schedule(&rxEvent_, f.rx);
}

void
DmiChannel::settle(Tick t, bool inclusive)
{
    auto due = [t, inclusive](Tick when) {
        return when < t || (inclusive && when == t);
    };
    // A frame ends after it starts, so every frame the second loop
    // settles has already passed the first.
    while (started_ != tail_ && due(slot(started_).start))
        settleStart(slot(started_++));
    while (ended_ != started_ && due(slot(ended_).end))
        settleEnd(slot(ended_++));
}

void
DmiChannel::settleStart(InFlight &f)
{
    std::uint8_t *bytes = f.wire.bytes.data();
    const unsigned len = f.wire.len;

    // The transmitter PHY scrambles as bits leave the chip. Only the
    // keystream's position is kept: the bytes stay plain, and
    // settleEnd() adds the keystream back if the receiver's is not
    // the same one (see the file comment).
    f.txKey = txScrambler_.state();
    jumpFrame(txScrambler_, len);

    // Bit errors strike on the wire. XOR commutes, so a flip of a
    // plain bit is the flip of the scrambled bit the lanes carried.
    // The first flip keeps the sent bytes for the intact check.
    auto flip = [&](std::uint64_t bit) {
        if (!f.hit) {
            std::copy_n(bytes, len, f.sent.begin());
            f.hit = true;
        }
        bytes[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    };

    // A degraded bundle (dead lane beyond the spare) damages every
    // frame, since frames stripe across all lanes.
    bool corrupt = forcedCorruptions_ > 0;
    if (corrupt) {
        --forcedCorruptions_;
    } else if (degraded()) {
        corrupt = true;
    } else if (params_.frameErrorRate > 0.0) {
        corrupt = rng_.chance(params_.frameErrorRate);
    }
    if (corrupt) {
        flip(rng_.below(std::uint64_t(len) * 8));
        ++stats_.framesCorrupted;
    }

    // A pending burst error flips contiguous bits; whatever does not
    // fit in this frame carries into the next one at bit 0.
    if (burstBitsLeft_ > 0) {
        unsigned frameBits = len * 8;
        unsigned start = std::min(burstStartBit_, frameBits);
        unsigned here = std::min(burstBitsLeft_, frameBits - start);
        for (unsigned bit = start; bit < start + here; ++bit)
            flip(bit);
        burstBitsLeft_ -= here;
        burstStartBit_ = 0; // continuation resumes at the frame start
        if (here > 0 && !corrupt)
            ++stats_.framesCorrupted;
    }

    busyTicks_ += f.end - f.start;
}

void
DmiChannel::settleEnd(InFlight &f)
{
    // The receiver PHY descrambles every frame slot in order, which
    // keeps the keystreams aligned even across replays. In step with
    // the transmitter its keystream cancels the one the frame was
    // scrambled with, so it only advances; out of step the frame
    // takes both, as on the wire.
    std::uint8_t *bytes = f.wire.bytes.data();
    const unsigned len = f.wire.len;
    const bool inStep = rxScrambler_.state() == f.txKey;
    if (inStep) {
        jumpFrame(rxScrambler_, len);
    } else {
        Scrambler(f.txKey).apply(bytes, len);
        rxScrambler_.apply(bytes, len);
    }
    f.intact = f.hit ? std::equal(bytes, bytes + len, f.sent.begin())
                     : inStep;

    ++stats_.framesCarried;
    stats_.bytesCarried += double(len);

    // A dropped frame vanishes after the descrambler advanced (the
    // keystream stays aligned for later frames); the sender's missing
    // ACK eventually triggers a replay.
    if (dropBudget_ > 0) {
        --dropBudget_;
        ++stats_.framesDropped;
        f.dropped = true;
    }
}

void
DmiChannel::receive()
{
    const Tick now = curTick();
    settle(now, false);
    std::uint64_t due = head_;
    while (due != tail_ && slot(due).rx == now)
        ++due;
    ct_assert(due != head_ && due <= started_);
    // With no flight time and no receive pipeline a frame is
    // received the tick it ends.
    while (ended_ < due)
        settleEnd(slot(ended_++));

    if (due != tail_)
        eventq().schedule(&rxEvent_, slot(due).rx);
    for (; head_ != due; ++head_) {
        const InFlight &f = slot(head_);
        if (receiver_ && !f.dropped)
            receiver_->processRx(f.wire, f.intact);
    }
}

void
DmiChannel::grow()
{
    std::vector<InFlight> bigger(ring_.size() * 2);
    const std::uint64_t mask = bigger.size() - 1;
    for (std::uint64_t i = head_; i != tail_; ++i)
        bigger[i & mask] = slot(i);
    ring_.swap(bigger);
    ringMask_ = mask;
}

void
DmiChannel::desyncRxScrambler()
{
    settleNow();
    rxScrambler_.skip(1);
}

void
DmiChannel::reseedScramblers(std::uint16_t seed)
{
    // Frames already on the lanes keep the old transmit keystream and
    // meet the new receive one.
    settleNow();
    txScrambler_.reset(seed);
    rxScrambler_.reset(seed);
}

void
DmiChannel::preRead() const
{
    // Channels are never const objects; reads only look const.
    const_cast<DmiChannel *>(this)->settleNow();
}

double
DmiChannel::utilization() const
{
    preRead();
    Tick elapsed = curTick() - createdAt_;
    return elapsed ? double(busyTicks_) / double(elapsed) : 0.0;
}

} // namespace contutto::dmi
