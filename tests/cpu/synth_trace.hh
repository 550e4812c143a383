/**
 * @file
 * A seeded binary trace for the cpu tests: independent accesses to
 * uniform-random lines of a footprint, with chosen write and
 * dependent fractions. trace::generate has fixed mixes; these tests
 * need others, e.g. an all-dependent trace.
 */

#ifndef CONTUTTO_TESTS_CPU_SYNTH_TRACE_HH
#define CONTUTTO_TESTS_CPU_SYNTH_TRACE_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "sim/random.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace contutto::cpu
{

/**
 * Write @p records records through TraceWriter and map them. The
 * file is unlinked at once; the mapping outlives its name.
 */
inline std::unique_ptr<trace::MappedTrace>
synthTrace(std::uint64_t records, Tick meanDelay, Addr footprint,
           double writeFraction, double dependentFraction,
           std::uint64_t seed)
{
    const std::string path = ::testing::TempDir() + "cpu_synth_"
                             + std::to_string(seed) + ".bin";
    Rng rng(seed);
    trace::TraceWriter writer(path);
    const std::uint64_t lines = footprint / 128;
    for (std::uint64_t i = 0; i < records; ++i) {
        trace::Record rec;
        rec.tickDelta =
            Tick(double(meanDelay) * (0.5 + rng.uniform()));
        rec.addr = rng.below(lines) * 128;
        bool isWrite = rng.chance(writeFraction);
        bool dependent = rng.chance(dependentFraction);
        rec.op = trace::makeOp(isWrite, dependent);
        writer.append(rec);
    }
    writer.close();
    auto bin = std::make_unique<trace::MappedTrace>(path);
    std::filesystem::remove(path);
    return bin;
}

} // namespace contutto::cpu

#endif // CONTUTTO_TESTS_CPU_SYNTH_TRACE_HH
