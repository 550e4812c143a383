/**
 * @file
 * Reproduces Table 5: near-memory accelerated functions on ConTutto
 * vs software on the POWER8 with CDIMMs.
 *
 * Paper reference: memcpy 6 GB/s vs 3.2 GB/s; min/max 10.5 GB/s vs
 * 0.5 GB/s; 1024-pt FFT 1.3 Gsamples/s vs 0.68 Gsamples/s — with
 * the accelerators touching only two DIMM ports against the
 * software's sixteen.
 */

#include "accel/driver.hh"
#include "bench_util.hh"
#include "workloads/sw_kernels.hh"

using namespace contutto;
using namespace contutto::accel;

namespace
{

double
runAccel(bench::Power8System &sys, AccelDriver &driver,
         AccelOp op, std::uint64_t bytes)
{
    bool done = false;
    Tick t0 = sys.eventq().curTick();
    auto cb = [&](const ControlBlock &) { done = true; };
    switch (op) {
      case AccelOp::memcpyBlock:
        driver.memcpyAsync(0, 128 * MiB, bytes, cb);
        break;
      case AccelOp::minMaxScan:
        driver.minMaxAsync(0, bytes, cb);
        break;
      case AccelOp::fft1024:
        driver.fftAsync(0, 0, bytes, cb);
        break;
      default:
        break;
    }
    while (!done && sys.eventq().step()) {
    }
    return ticksToSeconds(sys.eventq().curTick() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Telemetry tm(argc, argv);
    bench::header("Table 5: accelerated functions, ConTutto "
                  "(2 DIMM ports) vs software (CDIMMs)");

    // The ConTutto side.
    bench::Power8System accel_sys(bench::contuttoSystem());
    if (!accel_sys.train())
        return 1;
    AccelComplex complex("accel", accel_sys.eventq(),
                         accel_sys.fabricDomain(), &accel_sys,
                         *accel_sys.card(), 2ull * GiB);
    AccelDriver driver(accel_sys, complex, 256 * MiB);

    const std::uint64_t bytes = 16 * MiB;
    double t_copy =
        runAccel(accel_sys, driver, AccelOp::memcpyBlock, bytes);
    double t_minmax =
        runAccel(accel_sys, driver, AccelOp::minMaxScan, bytes);
    double t_fft =
        runAccel(accel_sys, driver, AccelOp::fft1024, 8 * MiB);
    double accel_copy = bytes / t_copy / 1e9;
    double accel_minmax = bytes / t_minmax / 1e9;
    double accel_fft = (8 * MiB) / 8.0 / t_fft / 1e9;

    // The software side runs on the Centaur/CDIMM system.
    bench::Power8System sw_sys(bench::centaurSystem(
        contutto::centaur::CentaurModel::optimized()));
    if (!sw_sys.train())
        return 1;
    double sw_copy =
        workloads::swMemcpy(sw_sys, 4 * MiB).bytesPerSecond / 1e9;
    double sw_minmax =
        workloads::swMinMax(sw_sys, 2 * MiB).bytesPerSecond / 1e9;
    double sw_fft =
        workloads::swFft(sw_sys, 1024, 256).samplesPerSecond / 1e9;

    std::printf("%-24s %14s %14s %8s %14s\n", "function",
                "ConTutto", "software", "speedup", "paper");
    bench::rule();
    std::printf("%-24s %11.1f GB/s %11.1f GB/s %7.1fx %14s\n",
                "memory copy (1 GB class)", accel_copy, sw_copy,
                accel_copy / sw_copy, "6 vs 3.2");
    std::printf("%-24s %11.1f GB/s %11.1f GB/s %7.1fx %14s\n",
                "min/max (256M int32)", accel_minmax, sw_minmax,
                accel_minmax / sw_minmax, "10.5 vs 0.5");
    std::printf("%-24s %10.2f Gsa/s %10.2f Gsa/s %7.1fx %14s\n",
                "1024-pt FFT (8B cplx)", accel_fft, sw_fft,
                accel_fft / sw_fft, "1.3 vs 0.68");
    std::printf("\npaper speedups: 1.9x, 21x, 1.9x -> \"2x to 20x "
                "improvement over software\"\n");
    tm.capture("contutto-accel", accel_sys);
    tm.capture("centaur-software", sw_sys);
    return 0;
}
