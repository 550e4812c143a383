/** @file Workload model tests: SPEC profiles, DB2, sw kernels. */

#include <gtest/gtest.h>

#include "workloads/db2.hh"
#include "workloads/spec.hh"
#include "workloads/sw_kernels.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::workloads;

namespace
{

Power8System::Params
cardSystem()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

Power8System::Params
centaurSystem(centaur::CentaurModel::Config cfg =
                  centaur::CentaurModel::optimized())
{
    Power8System::Params p;
    p.buffer = BufferKind::centaur;
    p.centaurConfig = cfg;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

TEST(Spec, TwelveBenchmarksWithDistinctCharacter)
{
    auto profiles = specCint2006();
    ASSERT_EQ(profiles.size(), 12u);
    // mcf is the pointer-chasing, miss-heavy outlier.
    const auto *mcf = &profiles[3];
    EXPECT_EQ(mcf->name, "429.mcf");
    for (const auto &p : profiles) {
        EXPECT_GT(p.baseCpi, 0.0);
        if (p.name != "429.mcf") {
            EXPECT_LE(p.missesPerKiloInstr,
                      mcf->missesPerKiloInstr);
        }
    }
}

TEST(Spec, McfDegradesMoreThanPerlbenchOnConTutto)
{
    auto profiles = specCint2006();
    auto run_pair = [&](unsigned knob, const cpu::WorkloadProfile &p) {
        Power8System sys(cardSystem());
        EXPECT_TRUE(sys.train());
        sys.card()->mbs().setKnobPosition(knob);
        return runSpecProfile(sys, p, 120000).runtimeSeconds;
    };
    double perl_base = run_pair(0, profiles[0]);
    double perl_slow = run_pair(7, profiles[0]);
    double mcf_base = run_pair(0, profiles[3]);
    double mcf_slow = run_pair(7, profiles[3]);

    double perl_deg = perl_slow / perl_base;
    double mcf_deg = mcf_slow / mcf_base;
    EXPECT_LT(perl_deg, 1.10);
    EXPECT_GT(mcf_deg, perl_deg + 0.05);
}

TEST(Db2, LatencyInsensitivityMatchesTable2Shape)
{
    // Paper Table 2: 79 ns -> 249 ns (3.2x) costs < 8% runtime.
    Power8System fast(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(fast.train());
    auto r_fast = runDb2Blu(fast, 0, 300000);

    Power8System slow(
        centaurSystem(centaur::CentaurModel::slowest()));
    ASSERT_TRUE(slow.train());
    auto r_slow = runDb2Blu(slow, r_fast.syntheticSeconds, 300000);

    double degradation =
        r_slow.syntheticSeconds / r_fast.syntheticSeconds - 1.0;
    EXPECT_GT(degradation, 0.005);
    EXPECT_LT(degradation, 0.12);
    // Scaled presentation anchors at the paper's baseline runtime.
    EXPECT_NEAR(runDb2Blu(fast, r_fast.syntheticSeconds, 300000)
                    .scaledSeconds,
                db2BaselineSeconds, db2BaselineSeconds * 0.05);
}

TEST(SwKernels, MemcpyLandsInPaperClass)
{
    Power8System sys(centaurSystem());
    ASSERT_TRUE(sys.train());
    auto r = swMemcpy(sys, 2 * MiB);
    // Table 5 software memcpy: 3.2 GB/s.
    EXPECT_GT(r.bytesPerSecond, 2.5e9);
    EXPECT_LT(r.bytesPerSecond, 4.2e9);
}

TEST(SwKernels, MinMaxIsLatencyBound)
{
    Power8System sys(centaurSystem());
    ASSERT_TRUE(sys.train());
    auto r = swMinMax(sys, 2 * MiB);
    // Table 5 software min/max: 0.5 GB/s.
    EXPECT_GT(r.bytesPerSecond, 0.35e9);
    EXPECT_LT(r.bytesPerSecond, 0.75e9);
}

TEST(SwKernels, FftIsComputeBound)
{
    Power8System sys(centaurSystem());
    ASSERT_TRUE(sys.train());
    auto r = swFft(sys, 1024, 200);
    // Table 5 software FFT (from DATE'15): 0.68 Gsamples/s.
    EXPECT_GT(r.samplesPerSecond, 0.55e9);
    EXPECT_LT(r.samplesPerSecond, 0.85e9);
}

TEST(SwKernels, MemcpyMovesRealData)
{
    Power8System sys(centaurSystem());
    ASSERT_TRUE(sys.train());
    std::vector<std::uint8_t> blob(4096);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = std::uint8_t(i * 13);
    sys.functionalWrite(0, blob.size(), blob.data());

    swMemcpy(sys, 4096, 0, 1 * GiB / 4);

    std::vector<std::uint8_t> out(4096);
    sys.functionalRead(1 * GiB / 4, out.size(), out.data());
    EXPECT_EQ(out, blob);
}

} // namespace
