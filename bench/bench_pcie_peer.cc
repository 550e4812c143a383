/**
 * @file
 * The §3.2 future-expansion claim, measured: direct card-to-card
 * transfers over the ConTutto PCIe block vs the host-mediated copy,
 * comparing throughput and — the paper's actual point — the DMI
 * memory-bus traffic each approach generates.
 */

#include "accel/pcie_peer.hh"
#include "bench_util.hh"
#include "cpu/multi_slot.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

MultiSlotSystem::Params
twoCardSocket()
{
    MultiSlotSystem::Params p;
    ChannelParams ch;
    ch.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
                DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    p.slots[0] = SlotSpec{SlotKind::contutto, ch};
    p.slots[1] = SlotSpec{SlotKind::empty, {}};
    p.slots[2] = SlotSpec{SlotKind::contutto, ch};
    for (unsigned s = 3; s < 8; ++s)
        p.slots[s] = SlotSpec{SlotKind::empty, {}};
    return p;
}

double
dmiFrames(MultiSlotSystem &socket)
{
    double frames = 0;
    for (unsigned s : {0u, 2u}) {
        auto *ch = socket.channelInSlot(s);
        frames += ch->upChannel().channelStats().framesCarried.value();
        frames +=
            ch->downChannel().channelStats().framesCarried.value();
    }
    return frames;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    const std::uint64_t bytes = 8 * MiB;
    bench::header("Card-to-card copy: PCIe peer DMA vs host-"
                  "mediated (8 MiB)");
    std::printf("%-24s %14s %20s\n", "path", "GB/s",
                "DMI frames generated");
    bench::rule();

    // Path 1: the PCIe peer link.
    {
        MultiSlotSystem socket(twoCardSocket());
        if (!socket.trainAll())
            return 1;
        fpga::ContuttoCard &a = *socket.channelInSlot(0)->card();
        PciePeerLink link("pcie", *socket.executor(), 0, 0,
                          a.clockDomain(), &socket, a,
                          *socket.channelInSlot(2)->card());
        double frames0 = dmiFrames(socket);
        bool done = false;
        EventQueue &eq = socket.channelQueue(0);
        const Tick t0 = eq.curTick();
        Tick t1 = t0;
        link.transfer(0, 0, 0, bytes, [&] {
            done = true;
            t1 = eq.curTick();
        });
        socket.executor()->runUntilIdle([&] { return done; },
                                        milliseconds(100));
        double secs = ticksToSeconds(t1 - t0);
        std::printf("%-24s %14.2f %20.0f\n", "PCIe peer DMA",
                    bytes / secs / 1e9, dmiFrames(socket) - frames0);
        tm.capture("pcie-peer-dma", socket);
    }

    // Path 2: the host bounces every line over both DMI channels.
    {
        MultiSlotSystem socket(twoCardSocket());
        if (!socket.trainAll())
            return 1;
        double frames0 = dmiFrames(socket);
        auto &src = socket.channelInSlot(0)->port();
        auto &dst = socket.channelInSlot(2)->port();
        std::uint64_t lines = bytes / dmi::cacheLineSize;
        std::uint64_t next = 0, done_lines = 0;
        EventQueue &eq = socket.channelQueue(0);
        const Tick t0 = eq.curTick();
        Tick t1 = t0;
        std::function<void()> pump = [&] {
            if (next >= lines)
                return;
            std::uint64_t i = next++;
            src.read(i * dmi::cacheLineSize,
                     [&, i](const HostOpResult &r) {
                         dst.write(i * dmi::cacheLineSize, r.data,
                                   [&](const HostOpResult &) {
                                       ++done_lines;
                                       t1 = eq.curTick();
                                       pump();
                                   });
                     });
        };
        for (int w = 0; w < 16; ++w)
            pump();
        socket.executor()->runUntilIdle(
            [&] { return done_lines == lines; }, milliseconds(100));
        double secs = ticksToSeconds(t1 - t0);
        std::printf("%-24s %14.2f %20.0f\n", "host-mediated copy",
                    bytes / secs / 1e9, dmiFrames(socket) - frames0);
        tm.capture("host-mediated", socket);
    }

    std::printf("\nThe peer path moves the same data with zero DMI "
                "frames — \"without burdening the POWER8 memory "
                "bus\" (3.2) — and the host path additionally "
                "spends processor tags on every line.\n");
    return 0;
}
