/**
 * @file
 * Timing contracts of the DMI channel: which frame a fault call hits
 * while frames are queued and on the lanes, what its counters read
 * mid-flight, when a frame counts as intact, a differential against
 * a reference channel that decides and scrambles every frame as it
 * happens, and command watchdogs that leave nothing queued once the
 * buffer is idle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cpu/system.hh"
#include "dmi/channel.hh"
#include "dmi/scrambler.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

bool
operator==(const WireFrame &a, const WireFrame &b)
{
    return a.len == b.len && a.bytes == b.bytes;
}

/** One frame handed to the receiver. */
struct Delivery
{
    Tick tick;
    WireFrame wire;
    bool intact;

    bool
    operator==(const Delivery &o) const
    {
        return tick == o.tick && wire == o.wire && intact == o.intact;
    }
};

/** Records every frame the channel hands over, with its tick. */
struct Recorder : FrameReceiver
{
    EventQueue *eq = nullptr;
    std::vector<Delivery> got;

    void
    processRx(const WireFrame &wire, bool intact) override
    {
        got.push_back({eq->curTick(), wire, intact});
    }
};

/**
 * One 14-lane channel: 2 ns per down frame, 1 ns of flight, and a
 * 1 ps receive clock with no pipeline, so a frame is received the
 * tick it lands. Frame i of a burst sent at 0 is on the lanes over
 * [2i, 2i + 2) ns.
 */
struct Wire
{
    EventQueue eq;
    ClockDomain clk{"clk", 1};
    stats::StatGroup root{"root"};
    DmiChannel ch;
    Recorder rx;
    std::vector<WireFrame> sent;

    explicit Wire(double ber = 0.0, std::uint64_t seed = 7)
        : ch("ch", eq, clk, &root,
             DmiChannel::Params{14, 125, nanoseconds(1), ber, seed})
    {
        rx.eq = &eq;
        ch.setReceiver(rx, clk, 0);
    }

    void
    send(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            DownFrame f;
            f.type = FrameType::command;
            f.cmdType = CmdType::read128;
            f.seqValid = true;
            f.seq = std::uint8_t(sent.size());
            f.tag = std::uint8_t(sent.size());
            f.addr = Addr(sent.size()) * 128;
            sent.push_back(f.serialize());
            ch.send(sent.back());
        }
    }

    /** Indices of delivered frames that differ from the sent ones
     *  (nothing may be dropped); each must fail its CRC, and a frame
     *  is intact exactly when it was delivered as sent. */
    std::vector<unsigned>
    damaged() const
    {
        std::vector<unsigned> out;
        EXPECT_EQ(rx.got.size(), sent.size());
        for (unsigned i = 0; i < rx.got.size() && i < sent.size(); ++i) {
            const bool asSent = rx.got[i].wire == sent[i];
            EXPECT_EQ(rx.got[i].intact, asSent) << "frame " << i;
            if (asSent)
                continue;
            out.push_back(i);
            DownFrame f;
            EXPECT_FALSE(DownFrame::deserialize(rx.got[i].wire, f))
                << "frame " << i;
        }
        return out;
    }

    /** Indices of sent frames never delivered (nothing may be
     *  damaged, and every delivered frame must be intact). */
    std::vector<unsigned>
    missing() const
    {
        std::vector<unsigned> out;
        std::size_t j = 0;
        for (unsigned i = 0; i < sent.size(); ++i) {
            if (j < rx.got.size() && rx.got[j].wire == sent[i]) {
                EXPECT_TRUE(rx.got[j].intact) << "frame " << i;
                ++j;
            } else {
                out.push_back(i);
            }
        }
        EXPECT_EQ(j, rx.got.size());
        return out;
    }
};

/** Where a call lands relative to the frames of a burst sent at 0. */
enum class Call
{
    /** At 5 ns between run() calls: frame 2 is on the lanes. */
    midFrame,
    /** At 4 ns between run() calls: frame 1 has ended and frame 2
     *  started. */
    afterRun,
    /** At 4 ns from an event queued before any frame: frame 1 has
     *  not ended and frame 2 not started yet. */
    inEvent,
};

using ChannelOp = std::function<void(DmiChannel &)>;

/**
 * Send 8 frames at 0, make @p fault per @p call, run @p undo (if
 * any) at 9 ns with frame 4 on the lanes, and deliver everything.
 */
void
runFault(Wire &w, Call call, const ChannelOp &fault,
         const ChannelOp &undo = nullptr)
{
    if (call == Call::inEvent)
        OneShotEvent::schedule(w.eq, nanoseconds(4),
                               [&w, &fault] { fault(w.ch); });
    w.send(8);
    if (call != Call::inEvent) {
        w.eq.run(call == Call::midFrame ? nanoseconds(5)
                                        : nanoseconds(4));
        fault(w.ch);
    }
    if (undo) {
        w.eq.run(nanoseconds(9));
        undo(w.ch);
    }
    w.eq.run(microseconds(1));
}

std::vector<unsigned>
damagedBy(Call call, const ChannelOp &fault,
          const ChannelOp &undo = nullptr)
{
    Wire w;
    runFault(w, call, fault, undo);
    return w.damaged();
}

using Idx = std::vector<unsigned>;

TEST(ChannelTiming, CorruptNextHitsTheNextFrameToStart)
{
    auto f = [](DmiChannel &c) { c.corruptNext(1); };
    EXPECT_EQ(damagedBy(Call::midFrame, f), Idx({3}));
    EXPECT_EQ(damagedBy(Call::afterRun, f), Idx({3}));
    EXPECT_EQ(damagedBy(Call::inEvent, f), Idx({2}));
}

TEST(ChannelTiming, DropNextHitsTheNextFrameToEnd)
{
    auto missingBy = [](Call call) {
        Wire w;
        runFault(w, call, [](DmiChannel &c) { c.dropNext(1); });
        EXPECT_EQ(w.ch.channelStats().framesDropped.value(), 1.0);
        return w.missing();
    };
    EXPECT_EQ(missingBy(Call::midFrame), Idx({2}));
    EXPECT_EQ(missingBy(Call::afterRun), Idx({2}));
    EXPECT_EQ(missingBy(Call::inEvent), Idx({1}));
}

TEST(ChannelTiming, BurstSpansTheNextTwoFramesToStart)
{
    // 8 bits at the tail of one 224-bit frame, 12 into the next.
    auto f = [](DmiChannel &c) { c.corruptBurst(216, 20); };
    EXPECT_EQ(damagedBy(Call::midFrame, f), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::afterRun, f), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::inEvent, f), Idx({2, 3}));
}

TEST(ChannelTiming, ErrorRateCountsFromTheNextFrameToStart)
{
    auto on = [](DmiChannel &c) { c.setFrameErrorRate(1.0); };
    auto off = [](DmiChannel &c) { c.setFrameErrorRate(0.0); };
    EXPECT_EQ(damagedBy(Call::midFrame, on, off), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::afterRun, on, off), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::inEvent, on, off), Idx({2, 3, 4}));
}

TEST(ChannelTiming, DegradedBundleDamagesFramesStartedWhileDegraded)
{
    const bool warn = LogControl::warnings();
    LogControl::warnings() = false;
    auto fail = [](DmiChannel &c) {
        c.failLane(0); // spared
        c.failLane(1); // degraded
    };
    auto repair = [](DmiChannel &c) { c.repairAllLanes(); };
    EXPECT_EQ(damagedBy(Call::midFrame, fail, repair), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::afterRun, fail, repair), Idx({3, 4}));
    EXPECT_EQ(damagedBy(Call::inEvent, fail, repair), Idx({2, 3, 4}));
    LogControl::warnings() = warn;
}

TEST(ChannelTiming, RxDesyncHitsEveryFrameNotYetEnded)
{
    auto slip = [](DmiChannel &c) { c.desyncRxScrambler(); };
    EXPECT_EQ(damagedBy(Call::midFrame, slip), Idx({2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(damagedBy(Call::afterRun, slip), Idx({2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(damagedBy(Call::inEvent, slip),
              Idx({1, 2, 3, 4, 5, 6, 7}));
}

TEST(ChannelTiming, DesyncedFramesAreReallyScrambled)
{
    // A slipped descrambler leaves the wire keystream XOR a shifted
    // keystream on every byte, not a few flipped bits: the frames
    // really were scrambled on the lanes.
    Wire w;
    runFault(w, Call::midFrame,
             [](DmiChannel &c) { c.desyncRxScrambler(); });
    ASSERT_EQ(w.damaged().size(), 6u);
    for (unsigned i = 2; i < 8; ++i) {
        unsigned differ = 0;
        for (unsigned b = 0; b < downFrameBytes; ++b)
            differ += w.rx.got[i].wire.bytes[b] != w.sent[i].bytes[b];
        EXPECT_GT(differ, downFrameBytes / 2) << "frame " << i;
    }
}

TEST(ChannelTiming, IntactExactlyWhenDeliveredAsSent)
{
    // Every fault made at 5 ns, with frame 2 on the lanes; damaged()
    // also checks that intact agrees with the bytes frame by frame.
    const bool warn = LogControl::warnings();
    LogControl::warnings() = false;
    auto rate = [](double r) {
        return [r](DmiChannel &c) { c.setFrameErrorRate(r); };
    };
    struct Case
    {
        const char *name;
        ChannelOp fault, undo;
        Idx notIntact;
    };
    const Case cases[] = {
        {"corruptNext", [](DmiChannel &c) { c.corruptNext(1); }, nullptr,
         {3}},
        {"burst spilling into the next frame",
         [](DmiChannel &c) { c.corruptBurst(216, 20); }, nullptr, {3, 4}},
        {"error rate", rate(1.0), rate(0.0), {3, 4}},
        {"degraded bundle",
         [](DmiChannel &c) {
             c.failLane(0);
             c.failLane(1);
         },
         [](DmiChannel &c) { c.repairAllLanes(); }, {3, 4}},
        {"rx desync", [](DmiChannel &c) { c.desyncRxScrambler(); },
         nullptr, {2, 3, 4, 5, 6, 7}},
        // Frame 2 keeps the old transmit keystream and meets the new
        // receive one, which it advances: the receiver stays a frame
        // ahead of the transmitter from then on.
        {"reseed with a frame on the lanes",
         [](DmiChannel &c) { c.reseedScramblers(0x1234); }, nullptr,
         {2, 3, 4, 5, 6, 7}},
    };
    for (const Case &k : cases) {
        Wire w;
        runFault(w, Call::midFrame, k.fault, k.undo);
        Idx notIntact;
        for (unsigned i = 0; i < w.rx.got.size(); ++i)
            if (!w.rx.got[i].intact)
                notIntact.push_back(i);
        EXPECT_EQ(notIntact, k.notIntact) << k.name;
        EXPECT_EQ(w.damaged(), k.notIntact) << k.name;
    }

    // A dropped frame still advances the receive keystream: every
    // later frame arrives intact.
    Wire w;
    runFault(w, Call::midFrame, [](DmiChannel &c) { c.dropNext(1); });
    EXPECT_EQ(w.missing(), Idx({2}));
    EXPECT_EQ(w.rx.got.size(), 7u);
    LogControl::warnings() = warn;
}

TEST(ChannelTiming, CountersReadMidFlightSeeTheDecisionsSoFar)
{
    // Every frame is corrupted (decided as it starts) and dropped
    // (decided as it ends).
    auto reads = [](Call call) {
        Wire w;
        w.ch.corruptNext(8);
        w.ch.dropNext(8);
        std::array<double, 4> got{};
        std::string printed;
        auto read = [&] {
            const auto &s = w.ch.channelStats();
            got = {s.framesCarried.value(), s.bytesCarried.value(),
                   s.framesCorrupted.value(), s.framesDropped.value()};
            std::ostringstream os;
            w.root.printStats(os);
            printed = os.str();
        };
        if (call == Call::inEvent)
            OneShotEvent::schedule(w.eq, nanoseconds(4), read);
        w.send(8);
        if (call != Call::inEvent) {
            w.eq.run(call == Call::midFrame ? nanoseconds(5)
                                            : nanoseconds(4));
            read();
        }
        w.eq.run(microseconds(1));
        // The stats tree reads what channelStats() reads.
        std::ostringstream carried;
        carried << "root.ch.framesCarried " << got[0] << " ";
        EXPECT_NE(printed.find(carried.str()), std::string::npos)
            << printed;
        return got;
    };
    using Counts = std::array<double, 4>;
    // Frames 0-1 ended, frames 0-2 started.
    EXPECT_EQ(reads(Call::midFrame), (Counts{2, 56, 3, 2}));
    EXPECT_EQ(reads(Call::afterRun), (Counts{2, 56, 3, 2}));
    // Frame 1 has not ended, frame 2 not started.
    EXPECT_EQ(reads(Call::inEvent), (Counts{1, 28, 2, 1}));
}

/**
 * The reference channel: decides and scrambles every frame as it
 * happens, with an event at each serialization end and another at
 * each landing, and a real scrambler at each end. A frame is intact
 * when it lands byte for byte as it was sent.
 */
class EagerChannel
{
  public:
    EagerChannel(EventQueue &eq, const DmiChannel::Params &p)
        : eq_(eq), p_(p), rng_(p.seed),
          done_([this] { serialized(); }, "eager.done")
    {}

    ~EagerChannel()
    {
        if (done_.scheduled())
            eq_.deschedule(&done_);
    }

    std::vector<Delivery> got;
    double carried = 0, bytes = 0, corrupted = 0, dropped = 0;

    void
    send(const WireFrame &f)
    {
        queue_.push_back(f);
        if (!busy_)
            startNext();
    }

    void corruptNext(unsigned n) { forced_ += n; }
    void
    corruptBurst(unsigned start, unsigned n)
    {
        burstStart_ = start;
        burstLeft_ += n;
    }
    void dropNext(unsigned n) { drop_ += n; }
    void setFrameErrorRate(double r) { p_.frameErrorRate = r; }
    void failLane() { ++failed_; }
    void repairAllLanes() { failed_ = 0; }
    void
    reseedScramblers(std::uint16_t seed)
    {
        tx_.reset(seed);
        rx_.reset(seed);
    }
    void desyncRxScrambler() { rx_.skip(1); }
    Rng &rng() { return rng_; }

  private:
    void
    startNext()
    {
        busy_ = true;
        wire_ = sent_ = queue_.front();
        queue_.erase(queue_.begin());
        std::uint8_t *b = wire_.bytes.data();
        tx_.apply(b, wire_.len);
        bool corrupt = forced_ > 0;
        if (corrupt)
            --forced_;
        else if (failed_ > DmiChannel::spareLanes)
            corrupt = true;
        else if (p_.frameErrorRate > 0.0)
            corrupt = rng_.chance(p_.frameErrorRate);
        if (corrupt) {
            std::uint64_t bit = rng_.below(std::uint64_t(wire_.len) * 8);
            b[bit / 8] ^= std::uint8_t(1u << (bit % 8));
            ++corrupted;
        }
        if (burstLeft_ > 0) {
            unsigned bits = unsigned(wire_.len) * 8;
            unsigned s = std::min(burstStart_, bits);
            unsigned here = std::min(burstLeft_, bits - s);
            for (unsigned i = s; i < s + here; ++i)
                b[i / 8] ^= std::uint8_t(1u << (i % 8));
            burstLeft_ -= here;
            burstStart_ = 0;
            if (here > 0 && !corrupt)
                ++corrupted;
        }
        Tick ser = Tick((wire_.len * 8 + p_.lanes - 1) / p_.lanes)
            * p_.bitPeriod;
        eq_.schedule(&done_, eq_.curTick() + ser);
    }

    void
    serialized()
    {
        WireFrame w = wire_;
        rx_.apply(w.bytes.data(), w.len);
        const bool intact = w == sent_;
        ++carried;
        bytes += w.len;
        busy_ = false;
        if (!queue_.empty())
            startNext();
        if (drop_ > 0) {
            --drop_;
            ++dropped;
            return;
        }
        OneShotEvent::schedule(eq_, eq_.curTick() + p_.flightTime,
                               [this, w, intact] {
                                   got.push_back(
                                       {eq_.curTick(), w, intact});
                               });
    }

    EventQueue &eq_;
    DmiChannel::Params p_;
    Rng rng_;
    Scrambler tx_, rx_;
    std::vector<WireFrame> queue_;
    WireFrame wire_, sent_;
    bool busy_ = false;
    unsigned forced_ = 0, burstStart_ = 0, burstLeft_ = 0, drop_ = 0,
             failed_ = 0;
    EventFunctionWrapper done_;
};

/** One scripted call, made between run() calls or from an event. */
struct Op
{
    Tick when;
    bool inEvent;
    unsigned kind;
    std::uint64_t a;
};

/** Apply @p op to either channel model. */
template <typename C>
void
apply(const Op &op, C &ch, const std::function<void(unsigned)> &send)
{
    switch (op.kind) {
      case 0: send(unsigned(op.a % 4) + 1); break;
      case 1: ch.corruptNext(unsigned(op.a % 2) + 1); break;
      case 2:
        ch.corruptBurst(unsigned(op.a % 336),
                        unsigned(op.a / 336 % 400) + 1);
        break;
      case 3: ch.dropNext(unsigned(op.a % 2) + 1); break;
      case 4: ch.setFrameErrorRate(op.a % 2 ? 0.25 : 0.0); break;
      case 5:
        if constexpr (std::is_same_v<C, DmiChannel>)
            ch.failLane(0);
        else
            ch.failLane();
        break;
      case 6: ch.repairAllLanes(); break;
      case 7: ch.desyncRxScrambler(); break;
      case 8: ch.reseedScramblers(std::uint16_t(op.a)); break;
    }
}

/**
 * Run @p ops against channel model @p C and return what it
 * delivered, its counters and its next RNG draw.
 */
template <typename C>
std::tuple<std::vector<Delivery>, std::array<double, 4>, std::uint64_t>
runScript(const std::vector<Op> &ops, std::uint64_t seed)
{
    EventQueue eq;
    ClockDomain clk("clk", 1);
    stats::StatGroup root("root");
    DmiChannel::Params p{14, 125, nanoseconds(1), 0.0, seed};
    Rng frames(seed * 31 + 1);
    Recorder rx;
    rx.eq = &eq;
    auto make = [&]() -> C {
        if constexpr (std::is_same_v<C, DmiChannel>)
            return C("ch", eq, clk, &root, p);
        else
            return C(eq, p);
    };
    C ch = make();
    if constexpr (std::is_same_v<C, DmiChannel>)
        ch.setReceiver(rx, clk, 0);

    // Random payload frames, down (28 B) and up (42 B) sized.
    auto send = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            WireFrame w;
            w.len = std::uint8_t(frames.next() % 2 ? downFrameBytes
                                                    : upFrameBytes);
            for (unsigned b = 0; b < w.len; ++b)
                w.bytes[b] = std::uint8_t(frames.next());
            ch.send(w);
        }
    };
    // Calls from events are queued first, ahead of every frame. A
    // far-off no-op keeps the queue from draining, so every run()
    // reaches its limit.
    OneShotEvent::schedule(eq, milliseconds(1), [] {});
    for (const Op &op : ops)
        if (op.inEvent)
            OneShotEvent::schedule(eq, op.when, [&, op] {
                apply(op, ch, send);
            });
    for (const Op &op : ops) {
        if (op.inEvent)
            continue;
        eq.run(op.when);
        apply(op, ch, send);
    }
    eq.run();

    std::array<double, 4> counters;
    std::vector<Delivery> got;
    if constexpr (std::is_same_v<C, DmiChannel>) {
        const auto &s = ch.channelStats();
        counters = {s.framesCarried.value(), s.bytesCarried.value(),
                    s.framesCorrupted.value(), s.framesDropped.value()};
        got = rx.got;
    } else {
        counters = {ch.carried, ch.bytes, ch.corrupted, ch.dropped};
        got = ch.got;
    }
    return {got, counters, ch.rng().next()};
}

TEST(ChannelTiming, LazyChannelMatchesEagerReference)
{
    const bool warn = LogControl::warnings();
    LogControl::warnings() = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        // Calls land on a 500 ps grid, so they often coincide with
        // frame starts and ends (frames take 2 or 3 ns). Calls from
        // events get distinct ticks: two at one tick would order
        // against a send between them differently in the reference.
        Rng r(seed);
        std::vector<Op> ops;
        std::set<Tick> eventTicks;
        for (unsigned i = 0; i < 300; ++i) {
            Op op;
            op.when = Tick(r.below(6000)) * 500;
            op.inEvent = r.below(2) == 0;
            // Sends outnumber each fault kind.
            unsigned k = unsigned(r.below(16));
            op.kind = k < 8 ? 0 : k - 7;
            op.a = r.next();
            if (op.inEvent && !eventTicks.insert(op.when).second)
                continue;
            ops.push_back(op);
        }
        std::stable_sort(ops.begin(), ops.end(),
                         [](const Op &x, const Op &y) {
                             return x.when < y.when;
                         });
        auto lazy = runScript<DmiChannel>(ops, seed);
        auto eager = runScript<EagerChannel>(ops, seed);
        ASSERT_EQ(std::get<0>(lazy).size(), std::get<0>(eager).size())
            << "seed " << seed;
        for (std::size_t i = 0; i < std::get<0>(lazy).size(); ++i) {
            // Tick, delivered bytes and intact bit.
            ASSERT_TRUE(std::get<0>(lazy)[i] == std::get<0>(eager)[i])
                << "seed " << seed << " frame " << i;
        }
        EXPECT_EQ(std::get<1>(lazy), std::get<1>(eager))
            << "seed " << seed;
        EXPECT_EQ(std::get<2>(lazy), std::get<2>(eager))
            << "seed " << seed;
    }
    LogControl::warnings() = warn;
}

/** Drive reads and writes through @p sys, drain, and expect the
 *  queue back at its idle size well before any 20 µs watchdog. */
void
expectWatchdogsGone(cpu::Power8System &sys)
{
    ASSERT_TRUE(sys.train());
    sys.runFor(microseconds(1));
    const std::size_t idle = sys.eventq().size();
    CacheLine line;
    line.fill(0x5A);
    for (unsigned i = 0; i < 48; ++i) {
        sys.port().write(Addr(i) * cacheLineSize, line, nullptr);
        sys.port().read(Addr(i + 64) * cacheLineSize,
                        [](const cpu::HostOpResult &) {});
    }
    ASSERT_TRUE(sys.runUntilIdle());
    sys.runFor(microseconds(1));
    EXPECT_EQ(sys.eventq().size(), idle);
}

TEST(ChannelTiming, MbsWatchdogsLeaveTheQueueWhenIdle)
{
    cpu::Power8System sys(cpu::Power8System::Params{});
    ASSERT_NE(sys.card(), nullptr);
    expectWatchdogsGone(sys);
}

TEST(ChannelTiming, CentaurWatchdogsLeaveTheQueueWhenIdle)
{
    cpu::Power8System::Params p;
    p.buffer = cpu::BufferKind::centaur;
    p.centaurConfig = centaur::CentaurModel::optimized();
    // A disabled cache sends every read to DDR under a watchdog.
    p.centaurConfig.cacheEnabled = false;
    p.dimms = {cpu::DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    cpu::Power8System sys(p);
    ASSERT_NE(sys.centaurBuffer(), nullptr);
    expectWatchdogsGone(sys);
}

} // namespace
