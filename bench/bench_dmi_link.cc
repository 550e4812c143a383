/**
 * @file
 * Microbenchmarks of the DMI link building blocks (google-benchmark)
 * plus a simulated link-saturation measurement against the paper's
 * 35 GB/s aggregate channel figure (§2.1).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "dmi/channel.hh"
#include "dmi/codec.hh"
#include "dmi/crc.hh"
#include "dmi/link.hh"
#include "dmi/scrambler.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

void
BM_Crc16Frame(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(upFrameBytes);
    Rng r(1);
    for (auto &b : buf)
        b = std::uint8_t(r.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(crc16(buf.data(), buf.size()));
    state.SetBytesProcessed(std::int64_t(state.iterations())
                            * std::int64_t(buf.size()));
}
BENCHMARK(BM_Crc16Frame);

void
BM_ScramblerFrame(benchmark::State &state)
{
    Scrambler s;
    std::vector<std::uint8_t> buf(upFrameBytes, 0x5A);
    for (auto _ : state) {
        s.apply(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(std::int64_t(state.iterations())
                            * std::int64_t(buf.size()));
}
BENCHMARK(BM_ScramblerFrame);

void
BM_FrameSerializeDeserialize(benchmark::State &state)
{
    DownFrame f;
    f.type = FrameType::writeData;
    f.tag = 7;
    f.subIndex = 3;
    for (auto &b : f.data)
        b = 0xA5;
    for (auto _ : state) {
        WireFrame w = f.serialize();
        DownFrame g;
        benchmark::DoNotOptimize(DownFrame::deserialize(w, g));
    }
}
BENCHMARK(BM_FrameSerializeDeserialize);

void
BM_CommandEncode(benchmark::State &state)
{
    MemCommand cmd;
    cmd.type = CmdType::write128;
    cmd.addr = 0x10000;
    cmd.tag = 5;
    for (auto _ : state)
        benchmark::DoNotOptimize(encodeCommand(cmd));
}
BENCHMARK(BM_CommandEncode);

/** Counts every frame a channel delivers. */
struct CountingReceiver : FrameReceiver
{
    int delivered = 0;
    void processRx(const WireFrame &) override { ++delivered; }
};

/**
 * Simulated saturation of the downstream/upstream lanes: back-to-
 * back frames at the ConTutto 8 Gb/s lane rate. The aggregate
 * should approach 14 + 21 = 35 GB/s, the paper's headline channel
 * figure.
 */
void
BM_LinkSaturation(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain fabric("fabric", 4000);
        stats::StatGroup root("root");
        DmiChannel down("down", eq, fabric, &root,
                        DmiChannel::Params{14, 125, 0, 0.0, 1});
        DmiChannel up("up", eq, fabric, &root,
                      DmiChannel::Params{21, 125, 0, 0.0, 2});
        // A 1 ps receive clock takes each frame the tick it lands.
        ClockDomain wire("wire", 1);
        CountingReceiver rx;
        down.setReceiver(rx, wire, 0);
        up.setReceiver(rx, wire, 0);

        const int frames = 1000;
        DownFrame df;
        df.type = FrameType::idle;
        UpFrame uf;
        uf.type = FrameType::idle;
        for (int i = 0; i < frames; ++i) {
            down.send(df.serialize());
            up.send(uf.serialize());
        }
        eq.run();
        double secs = ticksToSeconds(eq.curTick());
        double bytes = double(frames)
            * (downFrameBytes + upFrameBytes);
        state.counters["simGBps"] = bytes / secs / 1e9;
        benchmark::DoNotOptimize(rx.delivered);
    }
}
BENCHMARK(BM_LinkSaturation)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Custom main: peel off the uniform telemetry flags (which
 * google-benchmark would reject as unrecognized) before handing the
 * rest to the benchmark runner, then — when telemetry was asked
 * for — run a short traced end-to-end workload so the exported
 * files carry real link activity, not just microbench numbers.
 */
int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);

    std::vector<char *> kept;
    kept.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--stats-json=", 13) == 0
            || std::strncmp(arg, "--trace-out=", 12) == 0
            || std::strncmp(arg, "--trace-sample=", 15) == 0
            || std::strncmp(arg, "--stats-interval=", 17) == 0)
            continue;
        kept.push_back(argv[i]);
    }
    int kept_argc = int(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc,
                                               kept.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (tm.tracing() || tm.wantStats()) {
        bench::Power8System sys(bench::contuttoSystem());
        if (!sys.train())
            return 1;
        sys.measureReadLatencyNs();
        tm.capture("contutto-read-path", sys);
    }
    return 0;
}
