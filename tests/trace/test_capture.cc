/**
 * @file
 * Capture-side tests: absolute-tick→delta encoding, the base shift,
 * the deterministic k-way merge of per-shard captures (including
 * shards written under the real sharded executor, for the TSan job)
 * and the seeded fake generators.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/parallel.hh"
#include "trace/capture.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

using namespace contutto;
using namespace contutto::trace;

namespace
{

namespace fs = std::filesystem;

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + "trace_capture_" + leaf;
}

TEST(CaptureSink, DeltaEncodesAbsoluteTicks)
{
    const std::string path = tmpPath("delta.bin");
    fs::remove(path);
    CaptureSink sink(path);
    sink.record(100, 0x1000, Op::read);
    sink.record(250, 0x2000, Op::write);
    sink.record(250, 0x3000, Op::depRead); // same-tick neighbour
    sink.record(400, 0x4000, Op::depWrite);
    sink.close();

    MappedTrace bin(path);
    ASSERT_EQ(bin.recordCount(), 4u);
    EXPECT_EQ(bin.record(0).tickDelta, Tick(100));
    EXPECT_EQ(bin.record(1).tickDelta, Tick(150));
    EXPECT_EQ(bin.record(2).tickDelta, Tick(0));
    EXPECT_EQ(bin.record(3).tickDelta, Tick(150));
    EXPECT_EQ(bin.validateAll(), Tick(400));
    fs::remove(path);
}

TEST(CaptureSink, BaseShiftRestoresOrigin)
{
    // The same access stream captured at ticks T and T+shift (with
    // setBase(shift)) must produce byte-identical files — the
    // property that makes a mid-run recapture match its input.
    const std::string a = tmpPath("origin.bin");
    const std::string b = tmpPath("shifted.bin");
    fs::remove(a);
    fs::remove(b);

    CaptureSink sa(a);
    sa.record(100, 0x1000, Op::read);
    sa.record(250, 0x2000, Op::write);
    sa.close();

    CaptureSink sb(b);
    sb.setBase(7777);
    sb.record(7777 + 100, 0x1000, Op::read);
    sb.record(7777 + 250, 0x2000, Op::write);
    sb.close();

    EXPECT_EQ(sa.checksum(), sb.checksum());
    fs::remove(a);
    fs::remove(b);
}

/** One capture sink per shard at `<path>.shard<i>`, with threadId
 *  i: the per-shard files mergeShards stitches together. */
struct ShardFiles
{
    ShardFiles(const std::string &path, unsigned shards)
    {
        for (unsigned i = 0; i < shards; ++i) {
            TraceWriter::Options options;
            options.threadId = std::uint16_t(i);
            paths.push_back(path + ".shard" + std::to_string(i));
            fs::remove(paths.back());
            sinks.push_back(
                std::make_unique<CaptureSink>(paths.back(), options));
        }
    }

    /** Close every shard and merge them into @p out. */
    std::uint64_t
    merge(const std::string &out)
    {
        for (auto &sink : sinks)
            sink->close();
        std::uint64_t n = mergeShards(paths, out);
        for (const auto &p : paths)
            fs::remove(p);
        return n;
    }

    std::vector<std::string> paths;
    std::vector<std::unique_ptr<CaptureSink>> sinks;
};

TEST(MergeShards, TimeOrderedWithThreadIdTieBreak)
{
    const std::string path = tmpPath("sharded.bin");
    fs::remove(path);
    ShardFiles shards(path, 3);

    // Interleaved in time across shards, including a tick collision
    // between shards 0 and 2 (ordered by threadId).
    shards.sinks[0]->record(100, 0xa0, Op::read);
    shards.sinks[1]->record(50, 0xb0, Op::write);
    shards.sinks[2]->record(100, 0xc0, Op::read);
    shards.sinks[0]->record(300, 0xa1, Op::read);
    shards.sinks[1]->record(200, 0xb1, Op::depRead);

    EXPECT_EQ(shards.merge(path), 5u);

    MappedTrace bin(path);
    ASSERT_EQ(bin.recordCount(), 5u);
    struct Expect
    {
        Tick tick;
        Addr addr;
        Op op;
        std::uint16_t thread;
    };
    const Expect want[] = {{50, 0xb0, Op::write, 1},
                           {100, 0xa0, Op::read, 0},
                           {100, 0xc0, Op::read, 2},
                           {200, 0xb1, Op::depRead, 1},
                           {300, 0xa1, Op::read, 0}};
    Tick tick = 0;
    for (std::uint64_t i = 0; i < bin.recordCount(); ++i) {
        Record r = bin.record(i);
        tick += r.tickDelta;
        EXPECT_EQ(tick, want[i].tick) << "record " << i;
        EXPECT_EQ(r.addr, want[i].addr) << "record " << i;
        EXPECT_EQ(r.op, want[i].op) << "record " << i;
        EXPECT_EQ(r.threadId, want[i].thread) << "record " << i;
    }
    fs::remove(path);
}

TEST(MergeShards, ParallelShardWritesMatchSerial)
{
    // Same per-shard streams written serially and under the real
    // task farm: the merged file must be byte-identical (and the
    // parallel run gives TSan a real multi-writer workload).
    auto fill = [](ShardFiles &files, unsigned shard) {
        for (int i = 0; i < 200; ++i)
            files.sinks[shard]->record(
                Tick(10 * i + shard), 0x1000 * shard + 128 * i,
                i % 2 ? Op::write : Op::read);
    };

    const std::string serialPath = tmpPath("serial.bin");
    fs::remove(serialPath);
    ShardFiles serial(serialPath, 4);
    for (unsigned s = 0; s < 4; ++s)
        fill(serial, s);
    serial.merge(serialPath);

    const std::string parPath = tmpPath("parallel.bin");
    fs::remove(parPath);
    ShardFiles par(parPath, 4);
    std::vector<std::function<void()>> tasks;
    for (unsigned s = 0; s < 4; ++s)
        tasks.push_back([&par, &fill, s] { fill(par, s); });
    sim::ShardedExecutor::runTasks(
        4, sim::ShardedExecutor::Mode::parallel, tasks);
    par.merge(parPath);

    MappedTrace a(serialPath), b(parPath);
    EXPECT_EQ(a.recordCount(), 800u);
    EXPECT_EQ(a.checksum(), b.checksum());
    fs::remove(serialPath);
    fs::remove(parPath);
}

TEST(TraceGenerate, DeterministicPerSpec)
{
    const std::string a = tmpPath("gen_a.bin");
    const std::string b = tmpPath("gen_b.bin");

    for (Shape shape : {Shape::uniform, Shape::qsort,
                        Shape::matmul}) {
        GenerateSpec spec;
        spec.shape = shape;
        spec.records = 2000;
        spec.seed = 42;
        spec.meanDelay = nanoseconds(50);

        GenerateResult ra = generate(spec, a);
        GenerateResult rb = generate(spec, b);
        EXPECT_EQ(ra.recordCount, spec.records)
            << shapeName(shape);
        EXPECT_EQ(ra.checksum, rb.checksum) << shapeName(shape);

        // A different seed moves the trace.
        spec.seed = 43;
        GenerateResult rc = generate(spec, b);
        EXPECT_NE(ra.checksum, rc.checksum) << shapeName(shape);

        // And the file validates end to end.
        MappedTrace bin(a);
        EXPECT_EQ(bin.recordCount(), spec.records);
        EXPECT_GT(bin.validateAll(), Tick(0));
    }

    // Different shapes with the same seed differ too.
    GenerateSpec qs;
    qs.shape = Shape::qsort;
    qs.records = 2000;
    qs.seed = 42;
    GenerateSpec mm = qs;
    mm.shape = Shape::matmul;
    EXPECT_NE(generate(qs, a).checksum, generate(mm, b).checksum);

    fs::remove(a);
    fs::remove(b);
}

TEST(TraceGenerate, UnknownShapeNameIsTyped)
{
    try {
        shapeFromName("fibonacci");
        FAIL() << "unknown shape accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::badRecord);
    }
    EXPECT_EQ(shapeFromName("uniform"), Shape::uniform);
    EXPECT_EQ(shapeFromName("qsort"), Shape::qsort);
    EXPECT_EQ(shapeFromName("matmul"), Shape::matmul);
}

} // namespace
