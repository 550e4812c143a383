/**
 * @file
 * The FIO comparison matrix shared by the Figure 9 and Figure 10
 * benches: each persistent technology at its attach point, with the
 * software-stack cost of that attach point's driver path.
 *
 * Per-path software overheads: the DMI pmem paths use the lean
 * pmem-style driver; the MRAM PCIe vendor card ships a polled
 * driver; NVRAM/Flash go through the full NVMe block+interrupt path
 * of the 2017-era kernel.
 */

#ifndef CONTUTTO_BENCH_FIO_CONFIGS_HH
#define CONTUTTO_BENCH_FIO_CONFIGS_HH

#include <memory>
#include <vector>

#include "bench_util.hh"
#include "storage/fio.hh"
#include "storage/flat_latency.hh"
#include "storage/pmem.hh"

namespace bench
{

struct FioResult
{
    std::string name;
    double readIops = 0;
    double writeIops = 0;
    double readLatencyUs = 0;
    double writeLatencyUs = 0;
};

inline FioResult
runFio(contutto::EventQueue &eq, contutto::storage::BlockDevice &dev,
       contutto::Tick software_overhead, unsigned ops = 600)
{
    contutto::storage::FioEngine::Params p;
    p.ops = ops;
    p.readFraction = 0.5;
    p.softwareOverhead = software_overhead;
    auto r = contutto::storage::FioEngine(p).run(eq, dev);
    FioResult out;
    out.name = dev.describe();
    out.readIops = r.readIops;
    out.writeIops = r.writeIops;
    out.readLatencyUs = r.meanReadLatencyUs;
    out.writeLatencyUs = r.meanWriteLatencyUs;
    return out;
}

/** Runs the whole comparison matrix; each configuration's stats
 *  tree is captured into @p tm (when given) while it is alive. */
inline std::vector<FioResult>
runFioMatrix(Telemetry *tm = nullptr)
{
    using namespace contutto;
    using namespace contutto::storage;
    std::vector<FioResult> results;

    // STT-MRAM behind ConTutto on the DMI link.
    {
        Power8System sys(mramSystem());
        if (!sys.train())
            return results;
        PmemBlockDevice dev("pmem", sys, &sys,
                            PmemBlockDevice::Params::forMram());
        results.push_back(runFio(sys.eventq(), dev,
                                 nanoseconds(3900)));
        if (tm)
            tm->capture(results.back().name, sys);
    }
    // NVDIMM-N behind ConTutto on the DMI link.
    {
        Power8System::Params p;
        p.dimms = {cpu::DimmSpec{mem::MemTech::nvdimmN, 256 * MiB,
                                 {}, {}},
                   cpu::DimmSpec{mem::MemTech::nvdimmN, 256 * MiB,
                                 {}, {}}};
        Power8System sys(p);
        if (!sys.train())
            return results;
        PmemBlockDevice dev("pmem", sys, &sys,
                            PmemBlockDevice::Params::forNvdimm());
        results.push_back(runFio(sys.eventq(), dev,
                                 nanoseconds(2300)));
        if (tm)
            tm->capture(results.back().name, sys);
    }
    // PCIe comparison points.
    struct PcieCase
    {
        FlatLatencyDevice::Params params;
        Tick software;
    };
    const PcieCase cases[] = {
        {FlatLatencyDevice::mramOnPcie(), nanoseconds(3200)},
        {FlatLatencyDevice::nvramOnPcie(), nanoseconds(9300)},
        {FlatLatencyDevice::flashOnPcie(), nanoseconds(9300)},
    };
    for (const PcieCase &c : cases) {
        EventQueue eq;
        ClockDomain d("d", 500);
        stats::StatGroup root("root");
        FlatLatencyDevice dev("pcie", eq, d, &root, c.params);
        results.push_back(runFio(eq, dev, c.software));
        if (tm)
            tm->capture(results.back().name, root);
    }
    return results;
}

} // namespace bench

#endif // CONTUTTO_BENCH_FIO_CONFIGS_HH
