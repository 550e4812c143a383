/** @file Ternary CAM tests: matching semantics and the MMIO path. */

#include <gtest/gtest.h>

#include <cstring>

#include "accel/tcam.hh"
#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::accel;
using namespace contutto::cpu;

namespace
{

TEST(Tcam, ExactMatch)
{
    Tcam cam(16);
    cam.write(3, {true, 0xABCD, ~0ull, 42});
    auto hit = cam.lookup(0xABCD);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->index, 3u);
    EXPECT_EQ(hit->result, 42u);
    EXPECT_FALSE(cam.lookup(0xABCE).has_value());
}

TEST(Tcam, TernaryDontCareBits)
{
    Tcam cam(16);
    // Match any key whose top 8 bits of the low 16 are 0x12.
    cam.write(0, {true, 0x1200, 0xFF00, 7});
    EXPECT_TRUE(cam.lookup(0x1200).has_value());
    EXPECT_TRUE(cam.lookup(0x12FF).has_value());
    EXPECT_TRUE(cam.lookup(0x1234).has_value());
    EXPECT_FALSE(cam.lookup(0x1300).has_value());
}

TEST(Tcam, LowestIndexWins)
{
    Tcam cam(16);
    // Longest-prefix-match style: more specific entry at lower
    // index.
    cam.write(0, {true, 0x1234, 0xFFFF, 100}); // /16 exact
    cam.write(1, {true, 0x1200, 0xFF00, 200}); // /8 prefix
    cam.write(2, {true, 0x0000, 0x0000, 300}); // default route
    EXPECT_EQ(cam.lookup(0x1234)->result, 100u);
    EXPECT_EQ(cam.lookup(0x12AA)->result, 200u);
    EXPECT_EQ(cam.lookup(0x9999)->result, 300u);
}

TEST(Tcam, InvalidateRemovesEntry)
{
    Tcam cam(4);
    cam.write(0, {true, 5, ~0ull, 1});
    ASSERT_TRUE(cam.lookup(5).has_value());
    cam.invalidate(0);
    EXPECT_FALSE(cam.lookup(5).has_value());
}

TEST(Tcam, RandomizedAgainstLinearReference)
{
    Tcam cam(64);
    std::vector<Tcam::Entry> ref(64);
    Rng rng(99);
    for (int round = 0; round < 500; ++round) {
        if (rng.chance(0.3)) {
            unsigned idx = unsigned(rng.below(64));
            Tcam::Entry e;
            e.valid = rng.chance(0.9);
            e.value = rng.next() & 0xFFFF;
            e.mask = rng.next() & 0xFFFF;
            e.result = rng.next();
            cam.write(idx, e);
            ref[idx] = e;
        }
        std::uint64_t key = rng.next() & 0xFFFF;
        auto hit = cam.lookup(key);
        // Reference: first valid masked match.
        std::optional<unsigned> expect;
        for (unsigned i = 0; i < 64 && !expect; ++i)
            if (ref[i].valid
                && ((key ^ ref[i].value) & ref[i].mask) == 0)
                expect = i;
        ASSERT_EQ(hit.has_value(), expect.has_value());
        if (hit) {
            ASSERT_EQ(hit->index, *expect);
        }
    }
}

TEST(TcamMmio, HostDrivenRouteLookup)
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    Power8System sys(p);
    ASSERT_TRUE(sys.train());

    TcamMmio tcam("tcam", sys.eventq(), sys.fabricDomain(), &sys,
                  sys.card()->avalon(), 3ull * GiB);

    auto command = [&](std::uint64_t op, std::uint64_t index,
                       std::uint64_t value, std::uint64_t mask,
                       std::uint64_t result, std::uint64_t key) {
        dmi::CacheLine line{};
        std::memcpy(line.data() + 0, &op, 8);
        std::memcpy(line.data() + 8, &index, 8);
        std::memcpy(line.data() + 16, &value, 8);
        std::memcpy(line.data() + 24, &mask, 8);
        std::memcpy(line.data() + 32, &result, 8);
        std::memcpy(line.data() + 40, &key, 8);
        sys.port().write(tcam.mmioBase(), line, nullptr);
        EXPECT_TRUE(sys.runUntilIdle());
    };

    // Program a little routing table through the memory channel.
    command(TcamMmio::opWriteEntry, 0, 0x0A000000, 0xFFFFFF00, 11, 0);
    command(TcamMmio::opWriteEntry, 1, 0x0A000000, 0xFF000000, 22, 0);
    command(TcamMmio::opWriteEntry, 2, 0, 0, 33, 0); // default

    auto lookup = [&](std::uint64_t key) {
        command(TcamMmio::opLookup, 0, 0, 0, 0, key);
        std::uint64_t result = 0;
        sys.port().read(tcam.mmioBase() + 128,
                        [&](const HostOpResult &r) {
                            std::uint64_t valid;
                            std::memcpy(&valid, r.data.data(), 8);
                            EXPECT_EQ(valid, 1u);
                            std::memcpy(&result,
                                        r.data.data() + 16, 8);
                        });
        EXPECT_TRUE(sys.runUntilIdle());
        return result;
    };

    EXPECT_EQ(lookup(0x0A000042), 11u); // /24 match
    EXPECT_EQ(lookup(0x0A123456), 22u); // /8 match
    EXPECT_EQ(lookup(0xC0A80001), 33u); // default route
    EXPECT_EQ(tcam.tcamStats().lookups.value(), 3.0);
    EXPECT_EQ(tcam.tcamStats().hits.value(), 3.0);
}

} // namespace
