/**
 * @file
 * Simulated DMI link saturation against the paper's 35 GB/s
 * aggregate channel figure (§2.1). The host cost of the link building
 * blocks (CRC, scrambler, command codec) is priced per frame and per
 * command by perfbench's dmi.* metrics, not here.
 */

#include <cstdio>

#include "bench_util.hh"
#include "dmi/channel.hh"
#include "dmi/link.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

/** Counts every frame a channel delivers. */
struct CountingReceiver : FrameReceiver
{
    int delivered = 0;
    void processRx(const WireFrame &, bool) override { ++delivered; }
};

} // namespace

/**
 * Back-to-back frames at the ConTutto 8 Gb/s lane rate on 14
 * downstream and 21 upstream lanes: the aggregate should approach
 * 14 + 21 = 35 GB/s. When telemetry is asked for, a short traced
 * read-latency run follows so the exported files carry real link
 * activity too.
 */
int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("DMI link saturation (paper §2.1: 35 GB/s aggregate)");

    EventQueue eq;
    ClockDomain fabric("fabric", 4000);
    stats::StatGroup root("link");
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
    const double secs = ticksToSeconds(eq.curTick());
    const double bytes = double(frames) * (downFrameBytes + upFrameBytes);
    const double simGBps = bytes / secs / 1e9;
    std::printf("%d down + %d up frames, %d delivered in %.3f us: "
                "simGBps %.2f (paper: 35)\n",
                frames, frames, rx.delivered, secs * 1e6, simGBps);

    stats::Value gbpsV(&root, "simGBps",
                       "aggregate simulated link bandwidth, GB/s",
                       [&] { return simGBps; });
    tm.capture("link-saturation", root);

    if (tm.tracing() || tm.wantStats()) {
        bench::Power8System sys(bench::contuttoSystem());
        if (!sys.train())
            return 1;
        sys.measureReadLatencyNs();
        tm.capture("contutto-read-path", sys);
    }
    return 0;
}
