/**
 * @file
 * Reproduces Table 4: GPFS small-random-write IOPS for the three
 * persistent stores.
 *
 * Paper reference: HDD (SAS) 75 IOPS; SSD (SAS) 15K IOPS; STT-MRAM
 * on the DMI memory link 125K IOPS — an 8.3x single-thread win for
 * the ConTutto attach point over the state-of-the-art SSD.
 */

#include "bench_util.hh"
#include "storage/flat_latency.hh"
#include "storage/gpfs.hh"
#include "storage/pmem.hh"
#include "storage/sas_devices.hh"

using namespace contutto;
using namespace contutto::storage;

namespace
{

double
runWrites(EventQueue &eq, GpfsWriteCache &gpfs,
          std::uint64_t lba_space, int ops, std::uint64_t seed)
{
    Rng rng(seed);
    int done = 0;
    Tick t0 = eq.curTick();
    std::function<void()> next = [&] {
        if (done >= ops)
            return;
        gpfs.appWrite(rng.below(lba_space), [&] {
            ++done;
            next();
        });
    };
    next();
    while (done < ops && eq.step()) {
    }
    return double(ops) / ticksToSeconds(eq.curTick() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Table 4: GPFS small-random-write performance");
    std::printf("%-28s %10s %12s %12s\n", "technology", "size",
                "IOPS", "paper IOPS");
    bench::rule();

    {
        EventQueue eq;
        ClockDomain d("d", 500);
        stats::StatGroup root("root");
        HddDevice hdd("hdd", eq, d, &root);
        GpfsWriteCache gpfs("gpfs", eq, d, &root, nullptr, hdd);
        double iops =
            runWrites(eq, gpfs, hdd.capacityBlocks(), 60, 1);
        std::printf("%-28s %10s %12.0f %12s\n",
                    "Hard Disk Drive (SAS)", "1.1 TB", iops, "75");
        tm.capture("hdd-direct", root);
    }
    {
        EventQueue eq;
        ClockDomain d("d", 500);
        stats::StatGroup root("root");
        HddDevice hdd("hdd", eq, d, &root);
        FlatLatencyDevice ssd("ssd", eq, d, &root,
                              FlatLatencyDevice::sasSsd());
        GpfsWriteCache gpfs("gpfs", eq, d, &root, &ssd, hdd);
        double iops = runWrites(eq, gpfs, 1000000, 4000, 2);
        std::printf("%-28s %10s %12.0f %12s\n", "SSD (SAS)",
                    "400 GB", iops, "15K");
        tm.capture("ssd-cache", root);
    }
    double mram_iops = 0;
    {
        bench::Power8System sys(bench::mramSystem());
        if (!sys.train())
            return 1;
        PmemBlockDevice pmem("pmem", sys, &sys,
                             PmemBlockDevice::Params::forMram());
        HddDevice hdd("hdd", sys.eventq(), sys.nestDomain(), &sys);
        GpfsWriteCache gpfs("gpfs", sys.eventq(), sys.nestDomain(),
                            &sys, &pmem, hdd);
        mram_iops = runWrites(sys.eventq(), gpfs, 60000, 4000, 3);
        std::printf("%-28s %10s %12.0f %12s\n",
                    "STT-MRAM (DMI memory link)", "256 MB",
                    mram_iops, "125K");
        tm.capture("mram-dmi", sys);
    }
    std::printf("\nSTT-MRAM over SSD: %.1fx (paper: 8.3x)\n",
                mram_iops / 15000.0);
    return 0;
}
