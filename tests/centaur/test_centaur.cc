/** @file Centaur baseline model tests. */

#include <gtest/gtest.h>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::dmi;

namespace
{

Power8System::Params
centaurSystem(centaur::CentaurModel::Config cfg)
{
    Power8System::Params p;
    p.buffer = BufferKind::centaur;
    p.centaurConfig = cfg;
    p.dimms = {DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    return p;
}

TEST(Centaur, ServesReadsAndWrites)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0x42);
    sys.port().write(0x8000, line, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    bool ok = false;
    sys.port().read(0x8000, [&](const HostOpResult &r) {
        ok = true;
        EXPECT_EQ(r.data[10], 0x42);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(ok);
}

TEST(Centaur, CacheMakesRepeatedReadsFaster)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    auto *buf = sys.centaurBuffer();
    ASSERT_NE(buf, nullptr);

    Tick first = 0, second = 0;
    sys.port().read(0x100000, [&](const HostOpResult &r) {
        first = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    sys.port().read(0x100000, [&](const HostOpResult &r) {
        second = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());

    EXPECT_LT(second, first);
    EXPECT_GE(buf->centaurStats().cacheHits.value(), 1.0);
}

TEST(Centaur, PrefetchFillsNextLine)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    auto *buf = sys.centaurBuffer();

    sys.port().read(0x200000, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_GE(buf->centaurStats().prefetches.value(), 1.0);

    // The next line should now hit.
    Tick lat = 0;
    sys.port().read(0x200000 + 128, [&](const HostOpResult &r) {
        lat = r.dataAt - r.issuedAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_GE(buf->centaurStats().cacheHits.value(), 1.0);
}

TEST(Centaur, ConfigsOrderLatencies)
{
    // The Table 2 knob presets must produce strictly increasing
    // memory latency.
    double lat[4];
    const auto &cfgs = centaur::CentaurModel::table2Knobs();
    for (int i = 0; i < 4; ++i) {
        Power8System sys(centaurSystem(cfgs[i]));
        ASSERT_TRUE(sys.train());
        lat[i] = sys.measureReadLatencyNs();
    }
    EXPECT_LT(lat[0], lat[1]);
    EXPECT_LT(lat[1], lat[2]);
    EXPECT_LT(lat[2], lat[3]);
}

TEST(Centaur, UnsupportedCommandsCompleteAsNoops)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());
    LogControl::warnings() = false;
    bool done = false;
    // The in-line accelerated ops are ConTutto-only FPGA logic; the
    // ASIC must still free the tag.
    CacheLine line{};
    sys.port().minStore(0x9000, line,
                        [&](const HostOpResult &) { done = true; });
    ASSERT_TRUE(sys.runUntilIdle());
    LogControl::warnings() = true;
    EXPECT_TRUE(done);
    EXPECT_EQ(
        sys.centaurBuffer()->centaurStats().unsupportedCommands
            .value(),
        1.0);
}

TEST(Centaur, FlushDrainsOlderWrites)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    // Fire a burst of writes and a flush right behind them: the
    // fence must not complete before every older write has reached
    // DDR, or the pmem durability story is a lie on the baseline.
    unsigned writes_done = 0;
    CacheLine line;
    line.fill(0x5c);
    for (unsigned i = 0; i < 8; ++i)
        sys.port().write(0x10000 + i * 128, line,
                         [&](const HostOpResult &) {
                             ++writes_done;
                         });
    bool flush_done = false;
    unsigned writes_at_flush = 0;
    sys.port().flush([&](const HostOpResult &) {
        flush_done = true;
        writes_at_flush = writes_done;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(flush_done);
    EXPECT_EQ(writes_at_flush, 8u);
    EXPECT_EQ(sys.centaurBuffer()->centaurStats().flushes.value(),
              1.0);
    EXPECT_EQ(sys.centaurBuffer()
                  ->centaurStats().unsupportedCommands.value(),
              0.0);
}

TEST(Centaur, ReadAfterWriteSeesNewData)
{
    Power8System sys(
        centaurSystem(centaur::CentaurModel::optimized()));
    ASSERT_TRUE(sys.train());

    // Warm the cache so the read would hit and try to pass the
    // write.
    sys.port().read(0x40000, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    CacheLine line;
    line.fill(0xD7);
    bool read_done = false;
    sys.port().write(0x40000, line, nullptr);
    // Issue the read immediately, without waiting for the write.
    sys.port().read(0x40000, [&](const HostOpResult &r) {
        read_done = true;
        EXPECT_EQ(r.data[3], 0xD7);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(read_done);
}

} // namespace
