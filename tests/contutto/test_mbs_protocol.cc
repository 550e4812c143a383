/** @file MBS protocol properties: contiguity, flush, RMW fuzz. */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::dmi;

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

TEST(MbsProtocol, ReadDataFramesAreContiguousPerTag)
{
    // Paper 3.3(iii): "upstream data must be sent in contiguous
    // frames and hence both frames are assigned to a single command
    // engine". Observe the upstream frame stream at the host link
    // and verify each tag's four data chunks arrive back to back.
    Power8System sys(cardSystem());
    ASSERT_TRUE(sys.train());

    std::vector<UpFrame> stream;
    auto original = sys.hostLink().onFrame;
    sys.hostLink().onFrame = [&](const UpFrame &f) {
        stream.push_back(f);
        original(f);
    };

    int done = 0;
    for (int i = 0; i < 24; ++i)
        sys.port().read(Addr(i) * 4096,
                        [&](const HostOpResult &) { ++done; });
    ASSERT_TRUE(sys.runUntilIdle());
    ASSERT_EQ(done, 24);
    sys.hostLink().onFrame = original;

    // Scan: once a tag's readData run starts, its four chunks must
    // be adjacent (no other frame type, no other tag, in between).
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].type != FrameType::readData
            || stream[i].subIndex != 0)
            continue;
        for (unsigned k = 1; k < upFramesPerLine; ++k) {
            ASSERT_LT(i + k, stream.size());
            const UpFrame &f = stream[i + k];
            ASSERT_EQ(f.type, FrameType::readData)
                << "non-data frame inside a data burst at " << i + k;
            ASSERT_EQ(f.tag, stream[i].tag)
                << "foreign tag inside a data burst at " << i + k;
            ASSERT_EQ(f.subIndex, k);
        }
        i += upFramesPerLine - 1;
    }
}

TEST(MbsProtocol, FlushMakesPriorWritesVisibleInMedia)
{
    Power8System sys(cardSystem());
    ASSERT_TRUE(sys.train());

    CacheLine line;
    line.fill(0xAD);
    for (int i = 0; i < 12; ++i)
        sys.port().write(Addr(i) * 128, line, nullptr);

    bool checked = false;
    sys.port().flush([&](const HostOpResult &) {
        // At flush completion every covered write is in the media
        // image, observable through the functional window.
        for (int i = 0; i < 12; ++i) {
            std::uint8_t b = 0;
            sys.functionalRead(Addr(i) * 128, 1, &b);
            EXPECT_EQ(b, 0xAD) << "line " << i;
        }
        checked = true;
    });
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(checked);
}

enum class FuzzOp
{
    write,
    partialWrite,
    minStore,
    condSwap,
    read,
};

class MbsFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, BufferKind>>
{};

TEST_P(MbsFuzz, MixedRmwStreamMatchesReference)
{
    // Random mix of command types against a reference image, with
    // plenty of same-line conflicts to stress the deferral machinery;
    // every op must complete and the full region must match at the
    // end. Centaur has no in-line ops, so it draws writes, partial
    // writes and reads.
    auto [seed, kind] = GetParam();
    Power8System::Params params = cardSystem();
    params.buffer = kind;
    Power8System sys(params);
    ASSERT_TRUE(sys.train());
    Rng rng(seed);
    const std::vector<FuzzOp> mix =
        kind == BufferKind::contutto
            ? std::vector<FuzzOp>{FuzzOp::write, FuzzOp::partialWrite,
                                  FuzzOp::minStore, FuzzOp::condSwap}
            : std::vector<FuzzOp>{FuzzOp::write, FuzzOp::partialWrite,
                                  FuzzOp::read};

    constexpr unsigned lines = 24; // small: frequent conflicts
    std::vector<std::array<std::uint8_t, 128>> ref(lines);
    for (auto &l : ref)
        l.fill(0);

    auto laneOf = [](std::array<std::uint8_t, 128> &l,
                     unsigned lane) -> std::int64_t {
        std::int64_t v;
        std::memcpy(&v, l.data() + lane * 8, 8);
        return v;
    };
    auto setLane = [](std::array<std::uint8_t, 128> &l,
                      unsigned lane, std::int64_t v) {
        std::memcpy(l.data() + lane * 8, &v, 8);
    };

    constexpr int ops = 150;
    int completed = 0;
    auto count = [&](const HostOpResult &) { ++completed; };
    for (int op = 0; op < ops; ++op) {
        unsigned li = unsigned(rng.below(lines));
        Addr addr = Addr(li) * 128;
        CacheLine data;
        for (auto &b : data)
            b = std::uint8_t(rng.next());

        switch (mix[rng.below(mix.size())]) {
          case FuzzOp::write: {
            std::memcpy(ref[li].data(), data.data(), 128);
            sys.port().write(addr, data, count);
            break;
          }
          case FuzzOp::partialWrite: {
            ByteEnable en;
            for (int b = 0; b < 128; ++b)
                if (rng.chance(0.4))
                    en.set(b);
            for (int b = 0; b < 128; ++b)
                if (en[b])
                    ref[li][b] = data[b];
            sys.port().partialWrite(addr, data, en, count);
            break;
          }
          case FuzzOp::minStore: {
            for (unsigned lane = 0; lane < 16; ++lane) {
                std::int64_t n;
                std::memcpy(&n, data.data() + lane * 8, 8);
                setLane(ref[li], lane,
                        std::min(laneOf(ref[li], lane), n));
            }
            sys.port().minStore(addr, data, count);
            break;
          }
          case FuzzOp::condSwap: { // on lane 0
            std::int64_t current = laneOf(ref[li], 0);
            std::int64_t expected =
                rng.chance(0.5) ? current
                                : current + 1; // sometimes fail
            std::int64_t desired = std::int64_t(rng.next());
            if (expected == current)
                setLane(ref[li], 0, desired);
            sys.port().condSwap(addr,
                                std::uint64_t(expected),
                                std::uint64_t(desired), count);
            break;
          }
          case FuzzOp::read: {
            // Reads must not pass older writes to their line.
            std::array<std::uint8_t, 128> want = ref[li];
            sys.port().read(addr, [&, want, li](const HostOpResult &r) {
                ++completed;
                EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(), 128))
                    << "read of line " << li;
            });
            break;
          }
        }
        // Occasionally let everything drain; otherwise keep the
        // engines loaded with conflicting work.
        if (rng.chance(0.1)) {
            ASSERT_TRUE(sys.runUntilIdle());
        }
    }
    ASSERT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(completed, ops);

    for (unsigned li = 0; li < lines; ++li) {
        std::uint8_t out[128];
        sys.functionalRead(Addr(li) * 128, 128, out);
        ASSERT_EQ(0, std::memcmp(out, ref[li].data(), 128))
            << "line " << li;
    }
    // The conflict machinery actually fired.
    if (kind == BufferKind::contutto) {
        EXPECT_GT(sys.card()->mbs().mbsStats().addrOrderStalls.value(),
                  0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MbsFuzz,
    ::testing::Combine(::testing::Values(101, 202, 303, 404, 505, 606),
                       ::testing::Values(BufferKind::contutto,
                                         BufferKind::centaur)),
    [](const ::testing::TestParamInfo<MbsFuzz::ParamType> &info) {
        return (std::get<1>(info.param) == BufferKind::contutto
                    ? std::string("contutto")
                    : std::string("centaur"))
            + "_" + std::to_string(std::get<0>(info.param));
    });

} // namespace
