/** @file Near-memory acceleration end-to-end tests. */

#include <gtest/gtest.h>

#include <cstring>

#include "accel/driver.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

struct AccelRig
{
    Power8System sys;
    std::unique_ptr<AccelComplex> complexPtr;
    std::unique_ptr<AccelDriver> driverPtr;
    AccelComplex &complex;
    AccelDriver &driver;

    AccelRig()
        : sys(makeParams()), complexPtr(makeComplex(sys)),
          driverPtr(std::make_unique<AccelDriver>(sys, *complexPtr,
                                                  256 * MiB)),
          complex(*complexPtr), driver(*driverPtr)
    {}

    static std::unique_ptr<AccelComplex>
    makeComplex(Power8System &sys)
    {
        bool trained = sys.train();
        ct_assert(trained);
        return std::make_unique<AccelComplex>(
            "accel", sys.eventq(), sys.fabricDomain(), &sys,
            *sys.card(), 2ull * GiB);
    }

    static Power8System::Params
    makeParams()
    {
        Power8System::Params p;
        p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
                   DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
        return p;
    }

    ControlBlock
    run(std::function<void(AccelDriver::Callback)> launch,
        double *seconds = nullptr)
    {
        bool done = false;
        ControlBlock result;
        Tick t0 = sys.eventq().curTick();
        launch([&](const ControlBlock &cb) {
            result = cb;
            done = true;
        });
        while (!done && sys.eventq().step()) {
        }
        EXPECT_TRUE(done);
        if (seconds)
            *seconds = ticksToSeconds(sys.eventq().curTick() - t0);
        return result;
    }
};

TEST(Accel, MemcpyMovesDataCorrectly)
{
    AccelRig rig;
    std::vector<std::uint8_t> blob(64 * 1024);
    Rng rng(5);
    for (auto &b : blob)
        b = std::uint8_t(rng.next());
    rig.sys.functionalWrite(0, blob.size(), blob.data());

    auto cb = rig.run([&](AccelDriver::Callback done) {
        rig.driver.memcpyAsync(0, 16 * MiB, blob.size(), done);
    });
    EXPECT_EQ(cb.status, AccelStatus::done);

    std::vector<std::uint8_t> out(blob.size());
    rig.sys.functionalRead(16 * MiB, out.size(), out.data());
    EXPECT_EQ(out, blob);
}

TEST(Accel, MemcpyThroughputIsTable5Class)
{
    AccelRig rig;
    const std::uint64_t bytes = 8 * MiB;
    double secs = 0;
    rig.run(
        [&](AccelDriver::Callback done) {
            rig.driver.memcpyAsync(0, 64 * MiB, bytes, done);
        },
        &secs);
    double gbps = double(bytes) / secs / 1e9;
    // Paper Table 5: 6 GB/s with two DIMM ports.
    EXPECT_GT(gbps, 5.0);
    EXPECT_LT(gbps, 8.0);
}

TEST(Accel, MinMaxFindsExtremes)
{
    AccelRig rig;
    const unsigned n = 32 * 1024; // int32 values
    std::vector<std::int32_t> values(n);
    Rng rng(6);
    for (auto &v : values)
        v = std::int32_t(rng.next());
    values[n / 3] = std::numeric_limits<std::int32_t>::min() + 5;
    values[2 * n / 3] = std::numeric_limits<std::int32_t>::max() - 5;
    rig.sys.functionalWrite(
        0, values.size() * 4,
        reinterpret_cast<const std::uint8_t *>(values.data()));

    auto cb = rig.run([&](AccelDriver::Callback done) {
        rig.driver.minMaxAsync(0, values.size() * 4, done);
    });
    EXPECT_EQ(cb.status, AccelStatus::done);
    EXPECT_EQ(cb.resultMin,
              std::numeric_limits<std::int32_t>::min() + 5);
    EXPECT_EQ(cb.resultMax,
              std::numeric_limits<std::int32_t>::max() - 5);
}

TEST(Accel, MinMaxThroughputIsTable5Class)
{
    AccelRig rig;
    const std::uint64_t bytes = 8 * MiB;
    double secs = 0;
    rig.run(
        [&](AccelDriver::Callback done) {
            rig.driver.minMaxAsync(0, bytes, done);
        },
        &secs);
    double gbps = double(bytes) / secs / 1e9;
    // Paper Table 5: 10.5 GB/s (read-only stream at DIMM rate).
    EXPECT_GT(gbps, 9.0);
    EXPECT_LT(gbps, 11.5);
}

TEST(Accel, FftUnitComputesCorrectTransform)
{
    // Impulse at t=0 -> flat spectrum of ones.
    std::vector<std::complex<float>> data(1024, {0.0f, 0.0f});
    data[0] = {1.0f, 0.0f};
    FftUnit::fft(data);
    for (int k = 0; k < 1024; k += 111) {
        EXPECT_NEAR(data[k].real(), 1.0f, 1e-4);
        EXPECT_NEAR(data[k].imag(), 0.0f, 1e-4);
    }

    // Single complex tone at bin 7 -> delta at k=7 of height N.
    std::vector<std::complex<float>> tone(1024);
    for (int t = 0; t < 1024; ++t) {
        double ph = 2.0 * 3.14159265358979 * 7 * t / 1024.0;
        tone[t] = {float(std::cos(ph)), float(std::sin(ph))};
    }
    FftUnit::fft(tone);
    EXPECT_NEAR(std::abs(tone[7]), 1024.0, 1.0);
    EXPECT_LT(std::abs(tone[8]), 1.0);
    EXPECT_LT(std::abs(tone[500]), 1.0);
}

TEST(Accel, FftOffloadEndToEnd)
{
    AccelRig rig;
    const unsigned batches = 4;
    const std::uint64_t bytes = batches * 1024 * 8;

    // Stage a tone at bin 3 in every batch, in port0-linear layout.
    std::vector<std::complex<float>> samples(batches * 1024);
    for (unsigned b = 0; b < batches; ++b)
        for (int t = 0; t < 1024; ++t) {
            double ph = 2.0 * 3.14159265358979 * 3 * t / 1024.0;
            samples[b * 1024 + t] = {float(std::cos(ph)),
                                     float(std::sin(ph))};
        }
    rig.driver.stageMapped(
        MapMode::port0Linear, 0, bytes,
        reinterpret_cast<const std::uint8_t *>(samples.data()));

    double secs = 0;
    auto cb = rig.run(
        [&](AccelDriver::Callback done) {
            rig.driver.fftAsync(0, 0, bytes, done);
        },
        &secs);
    EXPECT_EQ(cb.status, AccelStatus::done);

    // Read the port1-linear output back and verify the spectrum.
    std::vector<std::complex<float>> out(batches * 1024);
    rig.driver.fetchMapped(
        MapMode::port1Linear, 0, bytes,
        reinterpret_cast<std::uint8_t *>(out.data()));
    for (unsigned b = 0; b < batches; ++b) {
        EXPECT_NEAR(std::abs(out[b * 1024 + 3]), 1024.0, 1.0)
            << "batch " << b;
        EXPECT_LT(std::abs(out[b * 1024 + 4]), 1.0);
    }
}

TEST(Accel, FftThroughputIsTable5Class)
{
    AccelRig rig;
    const std::uint64_t bytes = 4 * MiB; // 512 batches
    double secs = 0;
    rig.run(
        [&](AccelDriver::Callback done) {
            rig.driver.fftAsync(0, 0, bytes, done);
        },
        &secs);
    double gsamples = double(bytes) / 8.0 / secs / 1e9;
    // Paper Table 5: 1.3 Gsamples/s.
    EXPECT_GT(gsamples, 1.0);
    EXPECT_LT(gsamples, 1.5);
}

TEST(Accel, DoorbellWhileBusyReportsError)
{
    AccelRig rig;
    LogControl::warnings() = false;
    bool first_done = false;
    rig.driver.memcpyAsync(0, 64 * MiB, 4 * MiB,
                           [&](const ControlBlock &) {
                               first_done = true;
                           });
    // Run a little so the first task is in flight, then ring again.
    rig.sys.runFor(microseconds(50));
    ControlBlock second;
    bool second_done = false;
    rig.driver.minMaxAsync(0, 1 * MiB, [&](const ControlBlock &cb) {
        second = cb;
        second_done = true;
    });
    while (!(first_done && second_done) && rig.sys.eventq().step()) {
    }
    LogControl::warnings() = true;
    EXPECT_TRUE(second_done);
    EXPECT_EQ(second.status, AccelStatus::error);
}

TEST(Accel, AccessProcessorStatsTrackWork)
{
    AccelRig rig;
    rig.run([&](AccelDriver::Callback done) {
        rig.driver.memcpyAsync(0, 64 * MiB, 1 * MiB, done);
    });
    const auto &s = rig.complex.accessProcessor().apStats();
    EXPECT_EQ(s.linesRead.value(), 8192.0);
    EXPECT_EQ(s.linesWritten.value(), 8192.0);
    EXPECT_GT(s.instructions.value(), 8192.0 * 2);
    EXPECT_EQ(s.programsLoaded.value(), 1.0);
}

} // namespace
