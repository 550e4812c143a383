/**
 * @file
 * Layer kernels for the host-cost ledger.
 *
 * Each kernel times one layer's hot routine in isolation, fed with
 * inputs recorded from the workload being measured: the frames and
 * commands its own op stream encodes to, its own address stream into
 * a standalone DDR3 controller, its own event-gap mix into a private
 * event queue, and its own trace file through the decoder. The
 * result is a host cost per unit of that layer's work, which the
 * ledger multiplies by the units per trip the stat tree reports.
 */

#include <algorithm>
#include <chrono>
#include <memory>
#include <queue>

#include "dmi/codec.hh"
#include "dmi/crc.hh"
#include "dmi/scrambler.hh"
#include "mem/ddr3_controller.hh"
#include "mem/device.hh"
#include "perfbench.hh"
#include "trace/reader.hh"

namespace perfbench
{

using namespace contutto;

namespace
{

using Clock = std::chrono::steady_clock;

/** Results land here so no kernel loop is optimized away. */
volatile std::uint64_t sinkWord = 0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The fastest of nine trials of @p body's cost per unit, in ns; each
 * trial repeats @p body (which does @p units units of work) for at
 * least 10 ms after one untimed warm-up call. The fastest trial, like
 * the fast end of the timed repetitions, is the one the host's other
 * tenants disturbed least.
 */
template <typename F>
double
nsPerUnit(F &&body, double units)
{
    body();
    double best = 0;
    for (int t = 0; t < 9; ++t) {
        std::uint64_t calls = 0;
        const auto t0 = Clock::now();
        double elapsed = 0;
        do {
            body();
            ++calls;
            elapsed = secondsSince(t0);
        } while (elapsed < 0.01);
        const double ns = elapsed * 1e9 / (double(calls) * units);
        best = t == 0 ? ns : std::min(best, ns);
    }
    return best;
}

dmi::CacheLine
patternLine(SplitMix &rng)
{
    dmi::CacheLine line{};
    for (std::size_t i = 0; i < line.size(); i += 8) {
        const std::uint64_t w = rng.next();
        for (std::size_t b = 0; b < 8; ++b)
            line[i + b] = std::uint8_t(w >> (8 * b));
    }
    return line;
}

/** The op stream encoded the way the channel carries it. */
struct EncodedOps
{
    std::vector<dmi::MemCommand> cmds;
    /** Per op: its read data (reads only) and its done. */
    std::vector<std::vector<dmi::MemResponse>> resps;
    std::vector<std::vector<dmi::DownFrame>> downFrames;
    std::vector<std::vector<dmi::UpFrame>> upFrames;
    std::vector<dmi::WireFrame> downWire;
    std::vector<dmi::WireFrame> upWire;
};

EncodedOps
encodeOps(const std::vector<Op> &ops)
{
    EncodedOps e;
    SplitMix rng(0x5eedf00d);
    std::uint8_t downSeq = 0;
    std::uint8_t upSeq = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        dmi::MemCommand cmd;
        cmd.type = ops[i].isWrite ? dmi::CmdType::write128
                                  : dmi::CmdType::read128;
        cmd.addr = ops[i].addr & ~Addr(dmi::cacheLineSize - 1);
        cmd.tag = std::uint8_t(i % dmi::numTags);
        if (ops[i].isWrite)
            cmd.data = patternLine(rng);

        std::vector<dmi::MemResponse> resps;
        if (!ops[i].isWrite) {
            dmi::MemResponse data;
            data.type = dmi::RespType::readData;
            data.tag = cmd.tag;
            data.data = patternLine(rng);
            resps.push_back(data);
        }
        dmi::MemResponse done;
        done.type = dmi::RespType::done;
        done.tag = cmd.tag;
        resps.push_back(done);

        std::vector<dmi::DownFrame> down = dmi::encodeCommand(cmd);
        std::vector<dmi::UpFrame> up;
        for (const auto &r : resps)
            for (const auto &f : dmi::encodeResponse(r))
                up.push_back(f);
        for (auto &f : down) {
            f.seq = downSeq++;
            f.seqValid = true;
            e.downWire.push_back(f.serialize());
        }
        for (auto &f : up) {
            f.seq = upSeq++;
            f.seqValid = true;
            e.upWire.push_back(f.serialize());
        }
        e.cmds.push_back(cmd);
        e.resps.push_back(std::move(resps));
        e.downFrames.push_back(std::move(down));
        e.upFrames.push_back(std::move(up));
    }
    return e;
}

double
crcKernel(const std::vector<dmi::WireFrame> &frames)
{
    return nsPerUnit(
        [&] {
            std::uint64_t acc = 0;
            for (const auto &w : frames)
                acc += dmi::crc16(w.bytes.data(), w.len - 2u);
            sinkWord = sinkWord + acc;
        },
        double(frames.size()));
}

double
scrambleKernel(std::vector<dmi::WireFrame> frames)
{
    dmi::Scrambler s;
    return nsPerUnit(
        [&] {
            for (auto &w : frames)
                s.apply(w.bytes.data(), w.len);
            sinkWord = sinkWord + s.state();
        },
        double(frames.size()));
}

double
encodeKernel(const EncodedOps &e)
{
    return nsPerUnit(
        [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < e.cmds.size(); ++i) {
                acc += dmi::encodeCommand(e.cmds[i]).size();
                for (const auto &r : e.resps[i])
                    acc += dmi::encodeResponse(r).size();
            }
            sinkWord = sinkWord + acc;
        },
        double(e.cmds.size()));
}

double
assembleKernel(const EncodedOps &e)
{
    return nsPerUnit(
        [&] {
            dmi::CommandAssembler cmdAsm;
            dmi::ResponseAssembler respAsm;
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < e.cmds.size(); ++i) {
                for (const auto &f : e.downFrames[i])
                    acc += cmdAsm.feed(f).has_value();
                for (const auto &f : e.upFrames[i])
                    acc += respAsm.feed(f).size();
            }
            sinkWord = sinkWord + acc;
        },
        double(e.cmds.size()));
}

/**
 * Schedule+step with the workload's event mix: as many live events
 * as the workload kept on average, each re-arming itself on firing
 * after the next recorded gap between fired events. Gaps inside a
 * trip's burst land in the near-future wheel and idle gaps beyond
 * its horizon spill to the overflow heap, as in the recording. What
 * an outside observer cannot see — which events were descheduled
 * before firing — is not replayed.
 */
double
eventqKernel(const Recording &rec)
{
    std::vector<Tick> delays = rec.eventGaps;
    const auto live = std::max<std::size_t>(
        1, std::size_t(rec.meanLive + 0.5));
    if (delays.empty())
        delays.push_back(1000);

    struct Ctx
    {
        EventQueue eq;
        const std::vector<Tick> *delays = nullptr;
        std::size_t next = 0;
        std::vector<std::unique_ptr<EventFunctionWrapper>> events;

        Tick
        nextDelay()
        {
            const Tick d = (*delays)[next];
            next = next + 1 == delays->size() ? 0 : next + 1;
            return d;
        }
    } ctx;
    ctx.delays = &delays;
    for (std::size_t i = 0; i < live; ++i) {
        auto *ctxp = &ctx;
        ctx.events.push_back(std::make_unique<EventFunctionWrapper>(
            [ctxp, i] {
                ctxp->eq.schedule(ctxp->events[i].get(),
                                  ctxp->eq.curTick()
                                      + ctxp->nextDelay());
            },
            "kernel"));
        ctx.eq.schedule(ctx.events.back().get(), ctx.nextDelay());
    }
    constexpr int steps = 20000;
    const double ns = nsPerUnit(
        [&] {
            for (int i = 0; i < steps; ++i)
                ctx.eq.step();
        },
        steps);
    for (auto &ev : ctx.events)
        if (ev->scheduled())
            ctx.eq.deschedule(ev.get());
    return ns;
}

/**
 * A standalone controller and DIMM driven through submit(), a few
 * requests deep. One untimed pass materializes the memory image's
 * pages (the workload touched them long before steady state), then
 * every timed pass replays the same address stream.
 */
void
ddr3Kernel(const std::vector<Op> &ops, KernelCosts &out)
{
    constexpr std::uint64_t capacity = 512 * MiB;
    constexpr unsigned depth = 8;
    EventQueue eq;
    ClockDomain ddr("ddr", 1500);
    stats::StatGroup root("kernel");
    mem::DramDevice dimm("dimm", eq, ddr, &root, capacity);
    mem::Ddr3Controller mc("mc", eq, ddr, &root,
                           mem::Ddr3Controller::Params{}, dimm);
    auto pass = [&] {
        std::size_t issued = 0;
        std::size_t done = 0;
        unsigned outstanding = 0;
        while (done < ops.size()) {
            while (outstanding < depth && issued < ops.size()
                   && mc.canAccept()) {
                auto req = std::make_shared<mem::MemRequest>();
                const Op &op = ops[issued++];
                req->addr = (op.addr % capacity)
                            & ~Addr(dmi::cacheLineSize - 1);
                req->isWrite = op.isWrite;
                req->onDone = [&](mem::MemRequest &) {
                    --outstanding;
                    ++done;
                };
                ++outstanding;
                mc.submit(req);
            }
            if (!eq.step())
                break;
        }
    };
    const std::uint64_t ev0 = eq.eventsProcessed();
    pass();
    const double n = double(std::max<std::size_t>(1, ops.size()));
    out.ddr3EventsPerAccess = double(eq.eventsProcessed() - ev0) / n;
    out.ddr3NsPerAccess = nsPerUnit(pass, n);
}

double
decodeKernel(const std::string &path)
{
    trace::MappedTrace bin(path);
    const std::uint64_t n = bin.recordCount();
    if (n == 0)
        return 0;
    return nsPerUnit(
        [&] {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc += bin.record(i).addr;
            sinkWord = sinkWord + acc;
        },
        double(n));
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
referenceNs()
{
    constexpr int steps = 100000;
    std::vector<std::uint64_t> table(1 << 16);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    SplitMix rng(42);
    for (int i = 0; i < 2048; ++i)
        heap.push(rng.next() >> 20);
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < steps; ++i) {
        const std::uint64_t t = heap.top();
        heap.pop();
        const std::uint64_t r = rng.next();
        std::uint64_t &slot = table[(t ^ r) & 0xffff];
        acc += slot;
        slot = r;
        heap.push(t + (r >> 44));
    }
    sinkWord = sinkWord + acc;
    return secondsSince(t0) * 1e9 / steps;
}

KernelCosts
runKernels(const Recording &rec, const std::string &tracePath)
{
    KernelCosts k;
    const EncodedOps e = encodeOps(rec.ops);
    k.crcDownNs = crcKernel(e.downWire);
    k.crcUpNs = crcKernel(e.upWire);
    k.scrambleDownNs = scrambleKernel(e.downWire);
    k.scrambleUpNs = scrambleKernel(e.upWire);
    k.encodeNsPerCmd = encodeKernel(e);
    k.assembleNsPerCmd = assembleKernel(e);
    k.eventqNsPerEvent = eventqKernel(rec);
    ddr3Kernel(rec.ops, k);
    if (!tracePath.empty())
        k.decodeNsPerRecord = decodeKernel(tracePath);
    return k;
}

} // namespace perfbench
