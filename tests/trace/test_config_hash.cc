/**
 * @file
 * bench_trace_replay's stats-JSON configHash names what was
 * simulated, not where its input lies: two copies of one trace in
 * different directories give one hash, while the trace's content
 * and the flags that do not name files still move it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

using namespace contutto;

namespace
{

namespace fs = std::filesystem;

std::uint64_t
hashOf(std::vector<std::string> args, const trace::MappedTrace &t)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::traceConfigHash(int(argv.size()), argv.data(),
                                  t.checksum());
}

TEST(TraceConfigHash, OneTraceInTwoDirectories)
{
    const fs::path root = fs::path(::testing::TempDir()) / "cfg_hash";
    fs::create_directories(root / "a");
    fs::create_directories(root / "b" / "c");
    const std::string first = (root / "a" / "smoke.bin").string();
    const std::string copy = (root / "b" / "c" / "copy.bin").string();
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = 2000;
    spec.seed = 5;
    trace::generate(spec, first);
    fs::copy_file(first, copy, fs::copy_options::overwrite_existing);
    spec.seed = 6;
    const std::string other = (root / "a" / "other.bin").string();
    trace::generate(spec, other);
    trace::MappedTrace a(first), b(copy), c(other);

    const std::uint64_t h =
        hashOf({"build/bench/bench_trace_replay", "--trace=" + first,
                "--seed=3", "--stats-json=a.json"},
               a);
    // The path flags in both spellings, and the output files, drop
    // out.
    EXPECT_EQ(h, hashOf({"bench_trace_replay", "--trace", copy,
                         "--seed=3", "--recapture=re.bin",
                         "--stats-json=b/c/b.json"},
                        b));
    // The content, the seed and the sampling knobs do not.
    EXPECT_NE(h, hashOf({"bench_trace_replay", "--trace=" + other,
                         "--seed=3"},
                        c));
    EXPECT_NE(h, hashOf({"bench_trace_replay", "--trace=" + first,
                         "--seed=4"},
                        a));
    EXPECT_NE(h, hashOf({"bench_trace_replay", "--trace=" + first,
                         "--seed=3", "--sample-period=2048"},
                        a));
    fs::remove_all(root);
}

} // namespace
