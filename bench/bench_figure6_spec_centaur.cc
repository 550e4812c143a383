/**
 * @file
 * Reproduces Figure 6: SPEC CINT2006 ratios under variable memory
 * latency on Centaur (knob configurations of Table 2).
 *
 * Ratios are normalized to the latency-optimized configuration, so
 * 1.00 means no degradation. Paper shape: most benchmarks stay near
 * 1.0 across the 79-249 ns range; the pointer-chasing ones dip.
 */

#include "bench_util.hh"
#include "workloads/spec.hh"

using namespace contutto;
using namespace contutto::centaur;
using namespace contutto::workloads;

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Figure 6: SPEC CINT2006 ratios vs memory latency "
                  "on Centaur");

    const auto &configs = CentaurModel::table2Knobs();

    auto profiles = specCint2006();
    const std::uint64_t instructions =
        bench::parseUnsigned(argc, argv, "--instructions", 250000);
    const sim::SamplingConfig sampling = tm.samplingConfig();
    if (sampling.enabled)
        std::printf("sampled mode: warmup %llu window %llu period "
                    "%llu (misses)\n",
                    (unsigned long long)sampling.warmupUnits,
                    (unsigned long long)sampling.windowUnits,
                    (unsigned long long)sampling.periodUnits);

    // Column headers carry the measured latency of each config.
    double latency[4];
    std::printf("%-16s", "benchmark");
    for (int c = 0; c < 4; ++c) {
        bench::Power8System sys(bench::centaurSystem(configs[c]));
        if (!sys.train())
            return 1;
        latency[c] = sys.measureReadLatencyNs();
        std::printf(" %9.0fns", latency[c]);
        tm.capture(configs[c].configName, sys);
    }
    std::printf("\n");
    bench::rule();

    double worst[4] = {1, 1, 1, 1};
    std::uint64_t detailedMisses = 0, ffMisses = 0;
    for (const auto &prof : profiles) {
        double runtime[4];
        for (int c = 0; c < 4; ++c) {
            bench::Power8System sys(
                bench::centaurSystem(configs[c]));
            if (!sys.train())
                return 1;
            auto res =
                runSpecProfile(sys, prof, instructions, sampling);
            runtime[c] = res.runtimeSeconds;
            detailedMisses += res.sampling.detailedUnits;
            ffMisses += res.sampling.fastForwardUnits;
        }
        std::printf("%-16s", prof.name.c_str());
        for (int c = 0; c < 4; ++c) {
            double ratio = runtime[0] / runtime[c];
            worst[c] = std::min(worst[c], ratio);
            std::printf(" %11.3f", ratio);
        }
        std::printf("\n");
    }
    bench::rule();
    std::printf("%-16s", "worst ratio");
    for (int c = 0; c < 4; ++c)
        std::printf(" %11.3f", worst[c]);
    std::printf("\n\npaper shape: modest drops even at 249 ns; the "
                "miss-heavy pointer chasers lose the most\n");
    if (sampling.enabled && detailedMisses + ffMisses > 0)
        std::printf("sampled: %llu of %llu misses in detail "
                    "(%.1f%%)\n",
                    (unsigned long long)detailedMisses,
                    (unsigned long long)(detailedMisses + ffMisses),
                    100.0 * double(detailedMisses)
                        / double(detailedMisses + ffMisses));
    return 0;
}
