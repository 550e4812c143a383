/**
 * @file
 * Near-memory acceleration (§4.3): offload a min/max scan and a
 * batch of 1024-point FFTs to the ConTutto accelerators through the
 * control-block MMIO protocol, and verify the results against host
 * computation.
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <vector>

#include "accel/driver.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

int
main()
{
    Power8System::Params params;
    params.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
                    DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    Power8System sys(params);
    if (!sys.train())
        return 1;

    // The acceleration complex sits in a memory-mapped window above
    // the DIMM space; the driver stages the Access-processor
    // programs into ordinary memory.
    AccelComplex complex("accel", sys.eventq(), sys.fabricDomain(),
                         &sys, *sys.card(), 2ull * GiB);
    AccelDriver driver(sys, complex, 256 * MiB);

    // ---- min/max over 4M int32 values --------------------------
    const unsigned n = 4 * 1024 * 1024;
    std::vector<std::int32_t> values(n);
    Rng rng(42);
    std::int32_t host_min = INT32_MAX, host_max = INT32_MIN;
    for (auto &v : values) {
        v = std::int32_t(rng.next());
        host_min = std::min(host_min, v);
        host_max = std::max(host_max, v);
    }
    sys.functionalWrite(0, n * 4,
                        reinterpret_cast<std::uint8_t *>(
                            values.data()));

    bool done = false;
    ControlBlock result;
    Tick t0 = sys.eventq().curTick();
    driver.minMaxAsync(0, n * 4, [&](const ControlBlock &cb) {
        result = cb;
        done = true;
    });
    while (!done && sys.eventq().step()) {
    }
    double secs = ticksToSeconds(sys.eventq().curTick() - t0);
    std::printf("min/max of %u values: min=%lld max=%lld -> %s\n", n,
                (long long)result.resultMin,
                (long long)result.resultMax,
                (result.resultMin == host_min
                 && result.resultMax == host_max)
                    ? "matches host"
                    : "MISMATCH");
    std::printf("  %.1f GB/s near memory (paper Table 5: 10.5 vs "
                "0.5 in software)\n", n * 4.0 / secs / 1e9);

    // ---- a batch of 1024-point FFTs ----------------------------
    const unsigned batches = 32;
    std::vector<std::complex<float>> samples(batches * 1024);
    for (unsigned b = 0; b < batches; ++b)
        for (unsigned t = 0; t < 1024; ++t) {
            double ph = 2.0 * M_PI * double(b + 1) * t / 1024.0;
            samples[b * 1024 + t] = {float(std::cos(ph)),
                                     float(std::sin(ph))};
        }
    driver.stageMapped(MapMode::port0Linear, 0,
                       samples.size() * 8,
                       reinterpret_cast<std::uint8_t *>(
                           samples.data()));

    done = false;
    t0 = sys.eventq().curTick();
    driver.fftAsync(0, 0, samples.size() * 8,
                    [&](const ControlBlock &cb) {
                        result = cb;
                        done = true;
                    });
    while (!done && sys.eventq().step()) {
    }
    secs = ticksToSeconds(sys.eventq().curTick() - t0);

    std::vector<std::complex<float>> out(samples.size());
    driver.fetchMapped(MapMode::port1Linear, 0, out.size() * 8,
                       reinterpret_cast<std::uint8_t *>(out.data()));
    // Batch b holds a pure tone at bin b+1: expect a spike of height
    // 1024 there and silence elsewhere.
    bool spectra_ok = true;
    for (unsigned b = 0; b < batches; ++b) {
        if (std::abs(std::abs(out[b * 1024 + b + 1]) - 1024.0) > 2.0)
            spectra_ok = false;
        if (std::abs(out[b * 1024 + b + 2]) > 2.0)
            spectra_ok = false;
    }
    std::printf("%u x 1024-pt FFT: spectra %s\n", batches,
                spectra_ok ? "verified" : "MISMATCH");
    std::printf("  %.2f Gsamples/s near memory (paper Table 5: 1.3 "
                "vs 0.68 in software)\n",
                batches * 1024.0 / secs / 1e9);
    return spectra_ok ? 0 : 1;
}
