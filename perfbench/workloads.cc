/**
 * @file
 * The three benchmark workloads, one repetition at a time.
 *
 *  trace_detailed  qsort-shaped trace, every record through the
 *                  two-DIMM ConTutto channel (open loop, recorded
 *                  issue ticks, TimedTraceReplayer).
 *  trace_sampled   uniform trace over 256 MiB, same replayer with
 *                  default SMARTS sampling.
 *  socket_mixed    1 ConTutto + 6 Centaur channels on 2 shards,
 *                  closed loop, write-heavy, with read-back checks
 *                  against a per-channel shadow copy. Timed on the
 *                  executor's serial fallback: worker threads on a
 *                  shared host measure the neighbours as much as the
 *                  simulator. One threaded run per invocation checks
 *                  that it matches.
 *
 * A repetition builds its input and its system from scratch (that is
 * the set-up the benchmark times), runs the timed phase, and returns
 * the stat tree before and after it for the ledger.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "cpu/multi_slot.hh"
#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "perfbench.hh"
#include "sim/span.hh"
#include "trace/capture.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

namespace perfbench
{

using namespace contutto;
using namespace contutto::cpu;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @{ Input sizes: each repetition is about a third of a host
 *  second, so a run holds dozens of them. */
constexpr std::uint64_t detailedRecords = 30000;
constexpr std::uint64_t sampledRecords = 300000;
/** Simulated time each socket repetition keeps issuing for. */
constexpr Tick socketSpan = microseconds(60);
/** @} */

/** @{ socket_mixed op mix. */
constexpr unsigned socketDepth = 40; ///< outstanding per channel
constexpr unsigned socketWritePct = 50;
constexpr Addr socketFootprint = 64 * MiB; ///< per channel
/** @} */

/** Trips recorded for the layer kernels. */
constexpr std::size_t recordedOps = 4096;
/** Event steps recorded for the event-queue kernel. */
constexpr std::size_t recordedSteps = 200000;

trace::GenerateSpec
traceSpec(Workload w, std::uint64_t seed)
{
    trace::GenerateSpec spec;
    spec.seed = seed;
    spec.meanDelay = nanoseconds(200);
    if (w == Workload::traceDetailed) {
        spec.shape = trace::Shape::qsort;
        spec.records = detailedRecords;
        spec.footprint = 8 * MiB;
    } else {
        spec.shape = trace::Shape::uniform;
        spec.records = sampledRecords;
        spec.footprint = 256 * MiB;
    }
    return spec;
}

Power8System::Params
contuttoParams()
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

/** Per-stage exclusive simulated ns, averaged over traced ids. */
std::map<std::string, double>
stageBreakdown()
{
    std::vector<TraceId> ids;
    for (const span::Span &s : span::snapshot())
        ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::map<std::string, double> ns;
    for (TraceId id : ids)
        for (const span::StageTime &st : span::breakdown(id).stages)
            ns[st.stage] += ticksToNs(st.exclusive);
    for (auto &kv : ns)
        kv.second /= double(ids.empty() ? 1 : ids.size());
    return ns;
}

/** Span capture for a traced pass of about @p trips trips. */
class SpanCapture
{
  public:
    explicit SpanCapture(std::uint64_t trips)
    {
        span::reset();
        // About 2000 traced trips: enough for stable means, few
        // enough that the per-id breakdown stays cheap.
        span::setSampleInterval(std::max<std::uint64_t>(1, trips / 2000));
        span::setCapacity(1 << 20);
        span::setEnabled(true);
    }
    ~SpanCapture()
    {
        span::setEnabled(false);
        span::reset();
    }

    SpanCapture(const SpanCapture &) = delete;
    SpanCapture &operator=(const SpanCapture &) = delete;
};

Rep
runTraceRep(Workload w, std::uint64_t seed, const std::string &workdir,
            const RepOptions &opt)
{
    Rep r;
    const std::string path = tracePath(w, workdir);
    const auto t0 = Clock::now();
    const trace::GenerateResult gen =
        trace::generate(traceSpec(w, seed), path);
    trace::MappedTrace bin(path);
    Power8System sys(contuttoParams());
    if (!sys.train()) {
        r.errors.push_back("link training failed");
        return r;
    }
    ClockDomain core("core", 250);
    TimedTraceReplayer::Params params;
    params.nestOverhead = sys.params().nestOverhead;
    if (w == Workload::traceSampled) {
        sim::SamplingConfig cfg;
        cfg.enabled = true;
        params.sampler = &sys.enableSampling(cfg, seed);
    }
    std::unique_ptr<trace::CaptureSink> sink;
    if (opt.recapture) {
        sink = std::make_unique<trace::CaptureSink>(path + ".recapture");
        params.capture = sink.get();
    }
    TimedTraceReplayer replayer("replay", sys.eventq(), core, &sys,
                                params, sys.port());
    r.setupSec = secondsSince(t0);
    r.inputHash = bin.checksum();
    if (gen.checksum != bin.checksum())
        r.errors.push_back("generated and mapped checksums differ");

    if (opt.record) {
        const std::uint64_t n =
            std::min<std::uint64_t>(recordedOps, bin.recordCount());
        for (std::uint64_t i = 0; i < n; ++i) {
            const trace::Record rec = bin.record(i);
            opt.record->ops.push_back(
                Op{rec.addr, rec.op == trace::Op::write
                                 || rec.op == trace::Op::depWrite});
        }
    }

    std::optional<SpanCapture> capture;
    if (opt.traced) {
        // Only trips that travel the channel acquire trace ids.
        const sim::SamplingConfig cfg;
        capture.emplace(w == Workload::traceSampled
                            ? bin.recordCount()
                                  * (cfg.warmupUnits + cfg.windowUnits)
                                  / cfg.periodUnits
                            : bin.recordCount());
    }
    r.stats.emplace_back(sys);
    EventQueue &eq = sys.eventq();
    const Tick tick0 = eq.curTick();
    bool finished = false;
    TimedTraceReplayer::Result result;
    const auto t1 = Clock::now();
    double ownNs = 0;
    replayer.start(bin, [&](const TimedTraceReplayer::Result &res) {
        const auto c0 = Clock::now();
        result = res;
        finished = true;
        if (opt.traced)
            ownNs += std::chrono::duration<double, std::nano>(
                         Clock::now() - c0)
                         .count();
    });
    if (opt.record) {
        double liveSum = 0;
        std::size_t steps = 0;
        Tick last = eq.curTick();
        while (!finished && eq.step()) {
            if (steps < recordedSteps) {
                opt.record->eventGaps.push_back(eq.curTick() - last);
                last = eq.curTick();
                liveSum += double(eq.size());
                ++steps;
            }
        }
        opt.record->meanLive = steps ? liveSum / double(steps) : 0;
    } else {
        while (!finished && eq.step()) {
        }
    }
    r.runSec = secondsSince(t1);
    r.simTicks = eq.curTick() - tick0;
    if (opt.traced) {
        // The replayer issues every record itself; the benchmark's
        // only code inside the loop is the done callback.
        r.stepShare = 1.0 - ownNs / (r.runSec * 1e9);
        r.stageNs = stageBreakdown();
    }
    r.stats.emplace_back(sys);

    r.trips = result.replayed;
    if (!finished)
        r.errors.push_back("replay did not finish");
    if (result.replayed != bin.recordCount())
        r.errors.push_back("replayed != recordCount");
    if (w == Workload::traceDetailed
        && result.detailed != result.replayed)
        r.errors.push_back("detailed replay skipped records");
    if (w == Workload::traceSampled
        && (result.detailed == 0 || result.detailed >= result.replayed))
        r.errors.push_back("sampled replay did not sample");
    r.failed = std::uint64_t(
        sys.port().portStats().poisonedResponses.value());
    if (sink) {
        sink->close();
        if (sink->checksum() != bin.checksum())
            r.errors.push_back("recaptured checksum != input checksum");
    }
    r.fingerprint = r.stats.back().fingerprint();
    return r;
}

MultiSlotSystem::Params
socketParams(bool threaded)
{
    MultiSlotSystem::Params p;
    ChannelParams cdimm;
    cdimm.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    ChannelParams card;
    card.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
                  DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    p.slots[0] = SlotSpec{SlotKind::contutto, card};
    p.slots[1] = SlotSpec{SlotKind::empty, cdimm};
    for (unsigned s = 2; s < MultiSlotSystem::numSlots; ++s)
        p.slots[s] = SlotSpec{SlotKind::cdimm, cdimm};
    p.shards = 2;
    p.parallelExec = threaded;
    return p;
}

/** The seed of channel @p ch's slot @p slot op stream. */
std::uint64_t
streamSeed(std::uint64_t seed, unsigned ch, unsigned slot)
{
    return seed * 0x9e3779b97f4a7c15ull + ch * 1000003ull + slot;
}

/**
 * One closed-loop slot's op stream, a pure function of its seed:
 * writes of fresh tokens to random lines of the slot, and reads, half
 * of which read back the slot's last written line so the read-back
 * check compares real data and not only never-written zeros.
 */
class SlotStream
{
  public:
    SlotStream(std::uint64_t seed, unsigned slot) : rng_(seed), slot_(slot)
    {}

    /** The next op: (local line, write token; token 0 means a read). */
    std::pair<Addr, std::uint64_t>
    next()
    {
        const std::uint64_t r = rng_.next();
        const Addr perSlot =
            socketFootprint / dmi::cacheLineSize / socketDepth;
        const Addr line = ((r >> 9) % perSlot) * socketDepth + slot_;
        if ((r & 0xFF) * 100 < socketWritePct * 256u) {
            lastWrite_ = line;
            return {line, rng_.next() | 1};
        }
        if (lastWrite_ != noLine && (r & 0x100))
            return {lastWrite_, 0};
        return {line, 0};
    }

  private:
    static constexpr Addr noLine = ~Addr(0);
    SplitMix rng_;
    unsigned slot_;
    Addr lastWrite_ = noLine;
};

/**
 * The closed-loop client of one socket channel: socketDepth
 * independent slots, each with its own op stream over its own lines
 * (line index = slot mod socketDepth), so no two in-flight ops ever
 * touch one line and every read has exactly one correct answer. All
 * of a channel's callbacks run on that channel's shard, so its state
 * needs no locking.
 */
class ChannelClient
{
  public:
    ChannelClient(MultiSlotSystem &sock, unsigned ch, std::uint64_t seed,
                  Tick end, bool timeOwnCode)
        : sock_(sock), ch_(ch), nch_(sock.populatedChannels()),
          end_(end), timeOwnCode_(timeOwnCode)
    {
        for (unsigned k = 0; k < socketDepth; ++k)
            streams_.emplace_back(streamSeed(seed, ch, k), k);
    }

    void
    start()
    {
        for (unsigned k = 0; k < socketDepth; ++k)
            issue(k);
    }

    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    /** Simulated tick of this channel's latest completion. */
    Tick lastDone = 0;
    /** Host ns spent in this client's own code (traced runs). */
    double ownNs = 0;

  private:
    void
    issue(unsigned k)
    {
        const auto [line, token] = streams_[k].next();
        const Addr global = (line * nch_ + ch_) * dmi::cacheLineSize;
        ++issued;
        auto cb = [this, k, line, token](const HostOpResult &res) {
            done(k, line, token, res);
        };
        if (token) {
            dmi::CacheLine data;
            for (std::size_t i = 0; i < data.size(); i += 8)
                std::memcpy(data.data() + i, &token, 8);
            shadow_[line] = token;
            sock_.write(global, data, std::move(cb));
        } else {
            sock_.read(global, std::move(cb));
        }
    }

    void
    done(unsigned k, Addr line, std::uint64_t token,
         const HostOpResult &res)
    {
        const auto t0 = timeOwnCode_ ? Clock::now() : Clock::time_point{};
        ++completed;
        if (res.failed || res.poisoned)
            ++failed;
        if (!token) {
            auto it = shadow_.find(line);
            const std::uint64_t want = it == shadow_.end() ? 0 : it->second;
            std::uint64_t head = 0;
            std::uint64_t tail = 0;
            std::memcpy(&head, res.data.data(), 8);
            std::memcpy(&tail, res.data.data() + res.data.size() - 8, 8);
            if (head != want || tail != want)
                ++mismatches;
        }
        lastDone = sock_.channelQueue(ch_).curTick();
        const bool more = lastDone < end_;
        if (timeOwnCode_)
            ownNs += std::chrono::duration<double, std::nano>(
                         Clock::now() - t0)
                         .count();
        if (more)
            issue(k);
    }

    MultiSlotSystem &sock_;
    unsigned ch_;
    unsigned nch_;
    Tick end_;
    bool timeOwnCode_;
    std::vector<SlotStream> streams_;
    /** Last token written per line; reads of unwritten lines see 0. */
    std::unordered_map<Addr, std::uint64_t> shadow_;
};

/** Hash of the first ops of every socket slot stream. */
std::uint64_t
socketOpsHash(std::uint64_t seed)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned ch = 0; ch < 7; ++ch) {
        for (unsigned k = 0; k < socketDepth; ++k) {
            SlotStream stream(streamSeed(seed, ch, k), k);
            for (int i = 0; i < 64; ++i) {
                const auto op = stream.next();
                h = fnv1a(&op.first, sizeof(op.first), h);
                h = fnv1a(&op.second, sizeof(op.second), h);
            }
        }
    }
    return h;
}

std::uint64_t
shardEvents(MultiSlotSystem &sock, unsigned s)
{
    return sock.executor()->queue(s).eventsProcessed();
}

Rep
runSocketRep(std::uint64_t seed, const RepOptions &opt)
{
    Rep r;
    const auto t0 = Clock::now();
    r.inputHash = socketOpsHash(seed);
    // Declared first so they outlive the socket, whose channels hold
    // their completion callbacks.
    std::vector<std::unique_ptr<ChannelClient>> clients;
    MultiSlotSystem sock(socketParams(opt.threaded));
    if (!sock.trainAll()) {
        r.errors.push_back("link training failed");
        return r;
    }
    const Tick end = sock.curTick() + socketSpan;
    for (unsigned ch = 0; ch < sock.populatedChannels(); ++ch)
        clients.push_back(std::make_unique<ChannelClient>(
            sock, ch, seed, end, opt.traced));
    r.setupSec = secondsSince(t0);

    std::optional<SpanCapture> capture;
    if (opt.traced)
        capture.emplace(35000); // about one repetition's ops
    r.stats.emplace_back(sock);
    const unsigned shards = sock.executor()->numShards();
    std::vector<std::uint64_t> ev0;
    for (unsigned s = 0; s < shards; ++s)
        ev0.push_back(shardEvents(sock, s));
    const Tick tick0 = sock.curTick();
    const auto t1 = Clock::now();
    for (auto &c : clients)
        c->start();
    sock.executor()->run(end);
    const bool idle = sock.runUntilIdle();
    r.runSec = secondsSince(t1);
    // Up to the last completion: after it the executor may still skip
    // a window ahead to a refresh before it sees the socket idle.
    for (auto &c : clients)
        r.simTicks = std::max(r.simTicks, c->lastDone - tick0);
    if (opt.traced)
        r.stageNs = stageBreakdown();
    r.stats.emplace_back(sock);

    double maxEv = 0;
    double sumEv = 0;
    for (unsigned s = 0; s < shards; ++s) {
        const double ev = double(shardEvents(sock, s) - ev0[s]);
        maxEv = std::max(maxEv, ev);
        sumEv += ev;
    }
    r.shardImbalance = sumEv > 0 ? maxEv / (sumEv / shards) : 1;

    double ownNs = 0;
    std::uint64_t issued = 0;
    std::uint64_t mismatches = 0;
    for (auto &c : clients) {
        r.trips += c->completed;
        r.failed += c->failed;
        issued += c->issued;
        mismatches += c->mismatches;
        ownNs += c->ownNs;
    }
    if (opt.traced)
        r.stepShare = 1.0
                      - ownNs
                            / (r.runSec * 1e9
                               * double(opt.threaded ? shards : 1));
    if (!idle)
        r.errors.push_back("socket did not drain");
    if (r.trips != issued)
        r.errors.push_back("not every socket op completed");
    if (mismatches)
        r.errors.push_back(std::to_string(mismatches)
                           + " reads returned stale data");
    r.fingerprint = r.stats.back().fingerprint();
    return r;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::traceDetailed, Workload::traceSampled,
                       Workload::socketMixed}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::traceDetailed:
        return "trace_detailed";
      case Workload::traceSampled:
        return "trace_sampled";
      case Workload::socketMixed:
        return "socket_mixed";
    }
    return "?";
}

std::string
tracePath(Workload w, const std::string &workdir)
{
    if (w == Workload::socketMixed)
        return {};
    return workdir + "/" + workloadName(w) + ".bin";
}

std::uint64_t
inputHash(Workload w, std::uint64_t seed, const std::string &workdir)
{
    if (w == Workload::socketMixed)
        return socketOpsHash(seed);
    return trace::generate(traceSpec(w, seed), tracePath(w, workdir))
        .checksum;
}

Rep
runRep(Workload w, std::uint64_t seed, const std::string &workdir,
       const RepOptions &opt)
{
    if (w == Workload::socketMixed)
        return runSocketRep(seed, opt);
    return runTraceRep(w, seed, workdir, opt);
}

void
recordSocket(std::uint64_t seed, Recording &rec)
{
    // A throwaway socket whose shard queues are stepped one event at
    // a time from outside the executor (issues and completions then
    // land directly on the owning queue), so the gap between fired
    // events is observable without touching the model.
    std::vector<std::unique_ptr<ChannelClient>> clients;
    MultiSlotSystem sock(socketParams(false));
    if (!sock.trainAll())
        return;
    for (unsigned ch = 0; ch < sock.populatedChannels(); ++ch) {
        clients.push_back(std::make_unique<ChannelClient>(
            sock, ch, seed, maxTick, false));
        clients.back()->start();
    }
    for (unsigned k = 0; k < socketDepth && rec.ops.size() < recordedOps;
         ++k)
        for (unsigned ch = 0; ch < sock.populatedChannels(); ++ch) {
            SlotStream stream(streamSeed(seed, ch, k), k);
            for (int i = 0; i < 16; ++i) {
                const auto [line, token] = stream.next();
                rec.ops.push_back(Op{line * dmi::cacheLineSize, token != 0});
            }
        }
    double liveSum = 0;
    std::size_t steps = 0;
    const unsigned shards = sock.executor()->numShards();
    for (unsigned s = 0; s < shards; ++s) {
        EventQueue &eq = sock.executor()->queue(s);
        Tick last = eq.curTick();
        for (std::size_t i = 0; i < recordedSteps / shards && eq.step();
             ++i) {
            rec.eventGaps.push_back(eq.curTick() - last);
            last = eq.curTick();
            liveSum += double(eq.size());
            ++steps;
        }
    }
    rec.meanLive = steps ? liveSum / double(steps) : 0;
}

} // namespace perfbench
