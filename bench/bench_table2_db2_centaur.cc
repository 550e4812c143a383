/**
 * @file
 * Reproduces Table 2: memory latency vs DB2 BLU 29-query runtime on
 * Centaur with different performance-knob settings.
 *
 * Paper reference: 79 ns -> 5387 s, 83 ns -> 5451 s, 116 ns ->
 * 5484 s, 249 ns -> 5802 s; i.e. > 3x latency costs < 8% runtime.
 */

#include "bench_util.hh"
#include "workloads/db2.hh"

using namespace contutto;
using namespace contutto::centaur;
using namespace contutto::workloads;

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Table 2: Centaur latency knobs vs DB2 BLU "
                  "query runtime");

    const auto &configs = CentaurModel::table2Knobs();
    const double paper_latency[] = {79, 83, 116, 249};
    const double paper_runtime[] = {5387, 5451, 5484, 5802};

    std::printf("%-14s %14s %12s %16s %12s\n", "config",
                "latency (ns)", "paper (ns)", "DB2 runtime (s)",
                "paper (s)");
    bench::rule();

    double baseline_synthetic = 0;
    double base_runtime = 0;
    for (int i = 0; i < 4; ++i) {
        bench::Power8System sys(bench::centaurSystem(configs[i]));
        if (!sys.train()) {
            std::printf("training failed\n");
            return 1;
        }
        double latency = sys.measureReadLatencyNs();
        auto result = runDb2Blu(sys, baseline_synthetic, 400000);
        if (i == 0) {
            baseline_synthetic = result.syntheticSeconds;
            result.scaledSeconds = db2BaselineSeconds;
            base_runtime = result.scaledSeconds;
        }
        std::printf("%-14s %14.0f %12.0f %16.0f %12.0f\n",
                    configs[i].configName.c_str(), latency,
                    paper_latency[i], result.scaledSeconds,
                    paper_runtime[i]);
        tm.capture(configs[i].configName, sys);
        if (i == 3) {
            double deg = result.scaledSeconds / base_runtime - 1.0;
            std::printf("\n3.2x latency increase costs %.1f%% query "
                        "runtime (paper: < 8%%)\n", deg * 100.0);
        }
    }
    return 0;
}
