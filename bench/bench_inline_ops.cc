/**
 * @file
 * The Figure 11 use case, measured: in-line acceleration close to
 * memory. A min-store through the augmented command engine is ONE
 * DMI command executing the read-modify-write at the buffer; the
 * software equivalent is a read command, host compute, and a write
 * command — two full channel round trips plus the data moving both
 * ways. Also measures the flush command (the persistence primitive
 * §4.2 added for NVM) and the slram-vs-pmem driver split.
 */

#include "bench_util.hh"
#include "storage/fio.hh"
#include "storage/pmem.hh"

#include <cstring>

using namespace contutto;
using namespace contutto::cpu;

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("In-line ops (Figure 11): one command at the "
                  "buffer vs read-modify-write from the host");

    bench::Power8System sys(bench::contuttoSystem());
    if (!sys.train())
        return 1;

    const int ops = 64;
    dmi::CacheLine candidate{};
    for (unsigned lane = 0; lane < 16; ++lane) {
        std::int64_t v = 1000 + lane;
        std::memcpy(candidate.data() + lane * 8, &v, 8);
    }

    // In-line: minStore commands back to back (dependent).
    Tick t0 = sys.eventq().curTick();
    double up0 = sys.card()->mbi().linkStats().txPayloadFrames.value();
    int done = 0;
    std::function<void()> inline_next = [&] {
        if (done >= ops)
            return;
        sys.port().minStore(Addr(done) * 128, candidate,
                            [&](const HostOpResult &) {
                                ++done;
                                inline_next();
                            });
    };
    inline_next();
    sys.runUntilIdle();
    double inline_ns =
        ticksToNs(sys.eventq().curTick() - t0) / ops;
    double inline_frames =
        sys.hostLink().linkStats().txPayloadFrames.value();
    double inline_up =
        sys.card()->mbi().linkStats().txPayloadFrames.value() - up0;

    // Software: read, merge on the host, write back (dependent).
    t0 = sys.eventq().curTick();
    double up1 = sys.card()->mbi().linkStats().txPayloadFrames.value();
    done = 0;
    std::function<void()> sw_next = [&] {
        if (done >= ops)
            return;
        Addr addr = (1 * MiB) + Addr(done) * 128;
        sys.port().read(addr, [&, addr](const HostOpResult &r) {
            dmi::CacheLine merged = r.data;
            for (unsigned lane = 0; lane < 16; ++lane) {
                std::int64_t oldv, newv;
                std::memcpy(&oldv, merged.data() + lane * 8, 8);
                std::memcpy(&newv, candidate.data() + lane * 8, 8);
                std::int64_t keep = std::min(oldv, newv);
                std::memcpy(merged.data() + lane * 8, &keep, 8);
            }
            sys.port().write(addr, merged,
                             [&](const HostOpResult &) {
                                 ++done;
                                 sw_next();
                             });
        });
    };
    sw_next();
    sys.runUntilIdle();
    double sw_ns = ticksToNs(sys.eventq().curTick() - t0) / ops;
    double sw_frames =
        sys.hostLink().linkStats().txPayloadFrames.value()
        - inline_frames;
    double sw_up =
        sys.card()->mbi().linkStats().txPayloadFrames.value() - up1;

    std::printf("%-26s %12s %14s %12s\n", "approach", "ns per op",
                "down frames", "up frames");
    bench::rule();
    std::printf("%-26s %12.0f %14.1f %12.1f\n", "in-line min-store",
                inline_ns, inline_frames / ops, inline_up / ops);
    std::printf("%-26s %12.0f %14.1f %12.1f\n",
                "host read+merge+write", sw_ns, sw_frames / ops,
                sw_up / ops);
    std::printf("\nOne command instead of two: %.1fx lower latency "
                "(the soft DDR3 controller dominates both paths), "
                "%.1fx less upstream traffic (a done frame instead "
                "of 128 B of data + done), the processor stays out "
                "of the loop, and the RMW is atomic at the memory — "
                "a host-side read-merge-write is not (4.3).\n",
                sw_ns / inline_ns, sw_up / inline_up);
    tm.capture("inline-vs-sw", sys);

    bench::header("The flush persistence primitive and the two "
                  "driver stacks (4.2)");
    {
        bench::Power8System mram(bench::mramSystem());
        if (!mram.train())
            return 1;
        storage::PmemBlockDevice pmem("pmem", mram, &mram,
                                      storage::PmemBlockDevice::
                                          Params::forMram());
        storage::PmemBlockDevice slram("slram", mram, &mram,
                                       storage::PmemBlockDevice::
                                           Params::forSlram());
        storage::FioEngine::Params fp;
        fp.ops = 300;
        fp.readFraction = 0.0;
        fp.softwareOverhead = microseconds(1);
        auto rp = storage::FioEngine(fp).run(mram.eventq(), pmem);
        auto rs = storage::FioEngine(fp).run(mram.eventq(), slram);
        std::printf("%-28s write lat %6.2f us  (flush after every "
                    "block: persistence guaranteed)\n",
                    pmem.describe().c_str(), rp.meanWriteLatencyUs);
        std::printf("%-28s write lat %6.2f us  (no flush: faster, "
                    "no guarantee at power loss)\n",
                    slram.describe().c_str(), rs.meanWriteLatencyUs);
        std::printf("\nthe flush command costs %.2f us per 4 KiB "
                    "block — the measurable price of persistence on "
                    "the memory bus.\n",
                    rp.meanWriteLatencyUs - rs.meanWriteLatencyUs);
        tm.capture("mram-flush", mram);
    }
    return 0;
}
