/**
 * @file
 * Sampled-simulation calibration: wall-clock speedup and runtime
 * error of SMARTS-style sampling against full-detail runs.
 *
 * For each of the miss-heavy CINT2006 profiles (the ones where
 * event-level channel traffic dominates, so sampling has something
 * to win), the same (profile, system, seed) executes twice — full
 * detail and sampled — on freshly built Centaur systems. Reported
 * per profile:
 *
 *   speedup   wall-clock detail / wall-clock sampled
 *   relErr    |sampled runtime - detailed runtime| / detailed
 *             (the sampled event clock, with fast-forwarded misses
 *             charged the calibrated estimate, IS the runtime)
 *   ciCovers  1 when the reported 95% CI around the statistical
 *             estimate contains the true detailed runtime
 *
 * The aggregate minSpeedup / maxRelError / allCovered values are
 * what scripts/bench_gate.py distills and CI gates on (speedup
 * floor, error ceiling and coverage rules in BENCH_sampling.json).
 */

#include <chrono>
#include <cmath>

#include "bench_util.hh"
#include "workloads/spec.hh"

using namespace contutto;
using namespace contutto::centaur;
using namespace contutto::workloads;

namespace
{

struct Outcome
{
    std::string name;
    double wallDetailMs = 0;
    double wallSampledMs = 0;
    double speedup = 0;
    double detailSec = 0;
    double sampledSec = 0;
    double relError = 0;
    double estimateSec = 0;
    double ciHalfSec = 0;
    double ciCovers = 0;
    double windows = 0;
};

/** One profile's stats subtree, read-on-demand from its Outcome. */
class OutcomeStats : public stats::StatGroup
{
  public:
    OutcomeStats(stats::StatGroup *parent, const Outcome &o)
        : stats::StatGroup(statName(o.name), parent),
          wallDetailMs_(this, "wallDetailMs",
                        "full-detail wall time",
                        [&o] { return o.wallDetailMs; }),
          wallSampledMs_(this, "wallSampledMs",
                         "sampled wall time",
                         [&o] { return o.wallSampledMs; }),
          speedup_(this, "speedup", "wall-clock detail/sampled",
                   [&o] { return o.speedup; }),
          detailSec_(this, "detailRuntimeSec",
                     "full-detail simulated runtime",
                     [&o] { return o.detailSec; }),
          sampledSec_(this, "sampledRuntimeSec",
                      "sampled stitched runtime",
                      [&o] { return o.sampledSec; }),
          relError_(this, "relError",
                    "sampled-vs-detail runtime error",
                    [&o] { return o.relError; }),
          estimateSec_(this, "estimateSec",
                       "statistical runtime estimate",
                       [&o] { return o.estimateSec; }),
          ciHalfSec_(this, "ciHalfSec",
                     "95% CI half-width on the estimate",
                     [&o] { return o.ciHalfSec; }),
          ciCovers_(this, "ciCovers",
                    "1 when the CI contains the detailed runtime",
                    [&o] { return o.ciCovers; }),
          windows_(this, "windows", "measured windows",
                   [&o] { return o.windows; })
    {}

  private:
    /** "429.mcf" -> "mcf": stat names stay dot-free. */
    static std::string
    statName(const std::string &bench)
    {
        auto dot = bench.find('.');
        return dot == std::string::npos ? bench
                                        : bench.substr(dot + 1);
    }

    stats::Value wallDetailMs_;
    stats::Value wallSampledMs_;
    stats::Value speedup_;
    stats::Value detailSec_;
    stats::Value sampledSec_;
    stats::Value relError_;
    stats::Value estimateSec_;
    stats::Value ciHalfSec_;
    stats::Value ciCovers_;
    stats::Value windows_;
};

double
wallMs(std::chrono::steady_clock::time_point t0,
       std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Sampled simulation: speedup and error vs full "
                  "detail");

    const std::uint64_t instructions = bench::parseUnsigned(
        argc, argv, "--instructions", 2'000'000);
    sim::SamplingConfig sampling = tm.samplingConfig();
    // This bench always compares against sampled mode; --sample-mode
    // is implied, the window/warmup/period knobs still apply.
    sampling.enabled = true;

    std::printf("instructions %llu | sampled warmup %llu window "
                "%llu period %llu\n\n",
                (unsigned long long)instructions,
                (unsigned long long)sampling.warmupUnits,
                (unsigned long long)sampling.windowUnits,
                (unsigned long long)sampling.periodUnits);

    // Instruction budgets scale inversely with each profile's MPKI
    // (32 / 10 / 8.5 / 2.6) so every profile accumulates enough
    // misses to close a usable number of measured windows — the CI
    // is meaningless below ~2 windows, and a low-miss profile like
    // xalancbmk would close exactly one at the base budget.
    struct Case { const char *name; std::uint64_t mult; };
    const Case cases[] = {{"429.mcf", 1},
                          {"462.libquantum", 2},
                          {"471.omnetpp", 3},
                          {"483.xalancbmk", 8}};

    std::vector<Outcome> outcomes;
    outcomes.reserve(4);
    std::printf("%-16s %9s %9s %8s %8s %8s %3s %4s\n", "benchmark",
                "detail", "sampled", "speedup", "relErr", "ci±",
                "cov", "win");
    bench::rule();

    for (const Case &c : cases) {
        const char *want = c.name;
        const std::uint64_t budget = instructions * c.mult;
        const auto profiles = specCint2006();
        const cpu::WorkloadProfile *prof = nullptr;
        for (const auto &p : profiles)
            if (p.name == want)
                prof = &p;
        if (!prof)
            return 1;

        Outcome o;
        o.name = want;

        auto t0 = std::chrono::steady_clock::now();
        {
            bench::Power8System sys(bench::centaurSystem(
                CentaurModel::table3Baseline()));
            if (!sys.train())
                return 1;
            o.detailSec = runSpecProfile(sys, *prof, budget)
                              .runtimeSeconds;
        }
        auto t1 = std::chrono::steady_clock::now();
        SpecRunResult sampled;
        {
            bench::Power8System sys(bench::centaurSystem(
                CentaurModel::table3Baseline()));
            if (!sys.train())
                return 1;
            sampled =
                runSpecProfile(sys, *prof, budget, sampling);
        }
        auto t2 = std::chrono::steady_clock::now();

        o.wallDetailMs = wallMs(t0, t1);
        o.wallSampledMs = wallMs(t1, t2);
        o.speedup = o.wallSampledMs > 0
            ? o.wallDetailMs / o.wallSampledMs
            : 0;
        o.sampledSec = sampled.runtimeSeconds;
        o.relError = o.detailSec > 0
            ? std::fabs(o.sampledSec - o.detailSec) / o.detailSec
            : 0;
        o.estimateSec = sampled.sampling.estimatedRuntimeSec();
        o.ciHalfSec =
            ticksToSeconds(Tick(sampled.sampling.ciHalfWidthTicks));
        o.ciCovers = std::fabs(o.estimateSec - o.detailSec)
                <= o.ciHalfSec
            ? 1
            : 0;
        o.windows = double(sampled.sampling.windows);
        outcomes.push_back(o);

        std::printf("%-16s %7.0fms %7.0fms %7.1fx %7.2f%% %7.2f%% "
                    "%3.0f %4.0f\n",
                    o.name.c_str(), o.wallDetailMs, o.wallSampledMs,
                    o.speedup, 100 * o.relError,
                    o.detailSec > 0
                        ? 100 * o.ciHalfSec / o.detailSec
                        : 0,
                    o.ciCovers, o.windows);
    }

    double minSpeedup = outcomes.front().speedup;
    double maxRelError = 0;
    double covered = 0;
    for (const Outcome &o : outcomes) {
        minSpeedup = std::min(minSpeedup, o.speedup);
        maxRelError = std::max(maxRelError, o.relError);
        covered += o.ciCovers;
    }
    bool allCovered = covered == double(outcomes.size());

    bench::rule();
    std::printf("min speedup %.1fx | max relErr %.2f%% | CI covered "
                "%g of %zu\n",
                minSpeedup, 100 * maxRelError, covered,
                outcomes.size());

    // The stats tree the trajectory script distills: one subtree
    // per profile plus the aggregate gate values.
    stats::StatGroup root("samplingBench");
    std::vector<std::unique_ptr<OutcomeStats>> perProfile;
    for (const Outcome &o : outcomes)
        perProfile.push_back(
            std::make_unique<OutcomeStats>(&root, o));
    stats::Value minSpeedupV(&root, "minSpeedup",
                             "worst wall-clock speedup",
                             [&] { return minSpeedup; });
    stats::Value maxRelErrorV(&root, "maxRelError",
                              "worst runtime error",
                              [&] { return maxRelError; });
    stats::Value allCoveredV(
        &root, "allCovered",
        "1 when every CI contained the detailed runtime",
        [&] { return allCovered ? 1.0 : 0.0; });
    stats::Value instructionsV(&root, "instructions",
                               "instruction budget per run",
                               [&] { return double(instructions); });
    tm.capture("sampling", root);
    tm.finish();
    return 0;
}
