/** @file End-to-end system tests: host port through ConTutto. */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/energy.hh"
#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::dmi;

namespace
{

Power8System::Params
smallSystem(BufferKind kind = BufferKind::contutto)
{
    Power8System::Params p;
    p.buffer = kind;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

TEST(System, TrainsAndServesReadWrite)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());
    EXPECT_GT(sys.trainingResult().frtl, 0u);

    CacheLine line;
    for (std::size_t i = 0; i < line.size(); ++i)
        line[i] = std::uint8_t(i);

    bool wrote = false;
    sys.port().write(0x10000, line,
                     [&](const HostOpResult &) { wrote = true; });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_TRUE(wrote);

    bool read_ok = false;
    sys.port().read(0x10000, [&](const HostOpResult &r) {
        read_ok = true;
        EXPECT_EQ(r.data, line);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(read_ok);
}

TEST(System, ReadOfUntouchedMemoryIsZero)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());
    bool ok = false;
    sys.port().read(0x2000000, [&](const HostOpResult &r) {
        ok = true;
        for (auto b : r.data)
            EXPECT_EQ(b, 0);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(ok);
}

TEST(System, PartialWriteMergesAtomically)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    CacheLine base;
    base.fill(0x11);
    bool done = false;
    sys.port().write(0x5000, base,
                     [&](const HostOpResult &) { done = true; });
    ASSERT_TRUE(sys.runUntilIdle());

    CacheLine update;
    update.fill(0xEE);
    ByteEnable en;
    en.set(0);
    en.set(100);
    done = false;
    sys.port().partialWrite(0x5000, update, en,
                            [&](const HostOpResult &) { done = true; });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_TRUE(done);

    sys.port().read(0x5000, [&](const HostOpResult &r) {
        EXPECT_EQ(r.data[0], 0xEE);
        EXPECT_EQ(r.data[1], 0x11);
        EXPECT_EQ(r.data[100], 0xEE);
        EXPECT_EQ(r.data[127], 0x11);
    });
    ASSERT_TRUE(sys.runUntilIdle());
}

TEST(System, InlineMinMaxStore)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    CacheLine init{};
    for (unsigned lane = 0; lane < 16; ++lane) {
        std::int64_t v = 100 + lane;
        std::memcpy(init.data() + lane * 8, &v, 8);
    }
    sys.port().write(0x9000, init, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    CacheLine candidate{};
    for (unsigned lane = 0; lane < 16; ++lane) {
        std::int64_t v = (lane % 2 == 0) ? 50 : 500;
        std::memcpy(candidate.data() + lane * 8, &v, 8);
    }
    sys.port().minStore(0x9000, candidate, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    sys.port().read(0x9000, [&](const HostOpResult &r) {
        for (unsigned lane = 0; lane < 16; ++lane) {
            std::int64_t v;
            std::memcpy(&v, r.data.data() + lane * 8, 8);
            std::int64_t expect =
                (lane % 2 == 0) ? 50 : std::int64_t(100 + lane);
            EXPECT_EQ(v, expect) << "lane " << lane;
        }
    });
    ASSERT_TRUE(sys.runUntilIdle());

    sys.port().maxStore(0x9000, candidate, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    sys.port().read(0x9000, [&](const HostOpResult &r) {
        std::int64_t v;
        std::memcpy(&v, r.data.data() + 8, 8); // lane 1
        EXPECT_EQ(v, 500);
    });
    ASSERT_TRUE(sys.runUntilIdle());
}

TEST(System, InlineCondSwap)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    CacheLine init{};
    std::int64_t v = 42;
    std::memcpy(init.data(), &v, 8);
    sys.port().write(0xA000, init, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());

    // Failing swap: expected 7 != current 42.
    bool failed_cb = false;
    sys.port().condSwap(0xA000, 7, 99, [&](const HostOpResult &r) {
        failed_cb = true;
        EXPECT_FALSE(r.swapSucceeded);
        std::int64_t old;
        std::memcpy(&old, r.data.data(), 8);
        EXPECT_EQ(old, 42);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_TRUE(failed_cb);

    // Succeeding swap.
    bool ok_cb = false;
    sys.port().condSwap(0xA000, 42, 99, [&](const HostOpResult &r) {
        ok_cb = true;
        EXPECT_TRUE(r.swapSucceeded);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_TRUE(ok_cb);

    sys.port().read(0xA000, [&](const HostOpResult &r) {
        std::int64_t now;
        std::memcpy(&now, r.data.data(), 8);
        EXPECT_EQ(now, 99);
    });
    ASSERT_TRUE(sys.runUntilIdle());
}

TEST(System, FlushCompletesAfterOutstandingWrites)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0x55);
    int writes_done = 0;
    Tick flush_done_at = 0;
    Tick last_write_at = 0;
    for (int i = 0; i < 8; ++i) {
        sys.port().write(Addr(i) * 128, line,
                         [&](const HostOpResult &r) {
                             ++writes_done;
                             last_write_at =
                                 std::max(last_write_at, r.doneAt);
                         });
    }
    sys.port().flush([&](const HostOpResult &r) {
        flush_done_at = r.doneAt;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(writes_done, 8);
    ASSERT_GT(flush_done_at, 0u);
    // Flush must not complete before the writes it covers.
    EXPECT_GE(flush_done_at, last_write_at);
}

TEST(System, TagExhaustionStallsButCompletes)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    int done = 0;
    for (int i = 0; i < 100; ++i)
        sys.port().read(Addr(i) * 4096,
                        [&](const HostOpResult &) { ++done; });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(done, 100);
    EXPECT_GT(sys.port().portStats().tagStalls.value(), 0.0);
}

TEST(System, SurvivesChannelErrorsEndToEnd)
{
    auto p = smallSystem();
    p.channelErrorRate = 0.01;
    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0x77);
    int done = 0;
    for (int i = 0; i < 50; ++i)
        sys.port().write(Addr(i) * 128, line,
                         [&](const HostOpResult &) { ++done; });
    ASSERT_TRUE(sys.runUntilIdle(milliseconds(200)));
    EXPECT_EQ(done, 50);

    int reads_ok = 0;
    for (int i = 0; i < 50; ++i)
        sys.port().read(Addr(i) * 128, [&](const HostOpResult &r) {
            ++reads_ok;
            EXPECT_EQ(r.data[0], 0x77);
        });
    ASSERT_TRUE(sys.runUntilIdle(milliseconds(200)));
    EXPECT_EQ(reads_ok, 50);
}

TEST(System, MramAndNvdimmBehindConTutto)
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {
        DimmSpec{mem::MemTech::sttMram, 256 * MiB,
                 mem::MramDevice::Junction::pMTJ, {}},
        DimmSpec{mem::MemTech::nvdimmN, 256 * MiB, {}, {}},
    };
    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0x3C);
    bool done = false;
    sys.port().write(0x4000, line,
                     [&](const HostOpResult &) { done = true; });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(done);
    sys.port().read(0x4000, [&](const HostOpResult &r) {
        EXPECT_EQ(r.data[5], 0x3C);
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(sys.dimm(0).tech(), mem::MemTech::sttMram);
    EXPECT_EQ(sys.dimm(1).tech(), mem::MemTech::nvdimmN);
}

TEST(System, FunctionalAccessRoundTripsThroughTimingPath)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());

    std::vector<std::uint8_t> blob(1000);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = std::uint8_t(i * 7);
    sys.functionalWrite(0x20000, blob.size(), blob.data());

    // Timing-path read must see functionally staged data.
    sys.port().read(0x20000, [&](const HostOpResult &r) {
        for (int i = 0; i < 128; ++i)
            EXPECT_EQ(r.data[i], std::uint8_t(i * 7));
    });
    ASSERT_TRUE(sys.runUntilIdle());

    // And the reverse: timing write visible functionally.
    CacheLine line;
    line.fill(0x99);
    sys.port().write(0x30000, line, nullptr);
    ASSERT_TRUE(sys.runUntilIdle());
    std::uint8_t out[128];
    sys.functionalRead(0x30000, 128, out);
    EXPECT_EQ(out[0], 0x99);
    EXPECT_EQ(out[127], 0x99);
}

TEST(EnergyMeter, AccountsTrafficByComponent)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());
    EnergyMeter meter(sys);

    // 16 reads: link, dram, host and buffer columns all move.
    int done = 0;
    for (int i = 0; i < 16; ++i)
        sys.port().read(Addr(i) * 4096,
                        [&](const HostOpResult &) { ++done; });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_EQ(done, 16);

    auto r = meter.report();
    EXPECT_GT(r.linkPj, 0.0);
    EXPECT_GT(r.dramPj, 0.0);
    EXPECT_GT(r.hostPj, 0.0);
    EXPECT_GT(r.bufferPj, 0.0);
    EXPECT_EQ(r.apPj, 0.0);
    // DRAM: 16 lines x 128 B x 200 pJ/B = 409.6 nJ.
    EXPECT_NEAR(r.dramPj, 16 * 128 * 200.0, 1.0);
    // Host: 16 lines at 200 pJ each.
    EXPECT_NEAR(r.hostPj, 16 * 200.0, 1.0);

    // reset() re-baselines.
    meter.reset();
    EXPECT_EQ(meter.report().totalPj(), 0.0);
}

TEST(System, RandomMixedTrafficMatchesReferenceModel)
{
    Power8System sys(smallSystem());
    ASSERT_TRUE(sys.train());
    Rng rng(777);

    // Reference model of a small region.
    constexpr Addr region = 64 * 1024;
    std::vector<std::uint8_t> ref(region, 0);

    for (int round = 0; round < 60; ++round) {
        Addr addr = (rng.below(region / 128)) * 128;
        if (rng.chance(0.5)) {
            CacheLine line;
            for (auto &b : line)
                b = std::uint8_t(rng.next());
            std::memcpy(ref.data() + addr, line.data(), 128);
            sys.port().write(addr, line, nullptr);
        } else {
            std::uint8_t expect[128];
            std::memcpy(expect, ref.data() + addr, 128);
            sys.port().read(addr, [expect](const HostOpResult &r) {
                for (int i = 0; i < 128; ++i)
                    ASSERT_EQ(r.data[i], expect[i]);
            });
        }
        // Interleave: only sync every few ops to get overlap.
        if (round % 7 == 6) {
            ASSERT_TRUE(sys.runUntilIdle());
        }
    }
    ASSERT_TRUE(sys.runUntilIdle());
}

} // namespace
