/** @file CRC and scrambler unit + property tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "dmi/crc.hh"
#include "dmi/frame.hh"
#include "dmi/scrambler.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    const char *s = "123456789";
    EXPECT_EQ(crc16(reinterpret_cast<const std::uint8_t *>(s), 9),
              0x29B1);
}

// Bit-at-a-time CRC-16/CCITT-FALSE straight from the definition:
// MSB-first, poly 0x1021, init 0xFFFF, no reflection, no final XOR.
std::uint16_t
bitwiseCrc16(const std::uint8_t *data, std::size_t len)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < len; ++i) {
        for (int b = 7; b >= 0; --b) {
            const bool in = (data[i] >> b) & 1;
            const bool top = crc & 0x8000;
            crc = std::uint16_t(crc << 1);
            if (in != top)
                crc ^= 0x1021;
        }
    }
    return crc;
}

// The slice-by-8 kernel against the bitwise definition for every
// length 0-64: no 8-byte steps, several, and every tail length.
TEST(Crc16, SliceBy8MatchesBitwiseReferenceForEveryLength)
{
    Rng r(9);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::uint8_t> buf(64);
        for (auto &b : buf)
            b = std::uint8_t(r.next());
        if (trial == 0)
            std::fill(buf.begin(), buf.end(), 0x00);
        if (trial == 1)
            std::fill(buf.begin(), buf.end(), 0xFF);
        for (std::size_t len = 0; len <= buf.size(); ++len)
            ASSERT_EQ(crc16(buf.data(), len),
                      bitwiseCrc16(buf.data(), len))
                << "trial " << trial << " len " << len;
    }
}

// A 42 B upstream frame fed in two chunks, split at every offset,
// so the 8-byte steps start at every alignment of the frame.
TEST(Crc16, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> frame(upFrameBytes);
    Rng r(3);
    for (auto &b : frame)
        b = std::uint8_t(r.next());
    const std::uint16_t whole = crc16(frame.data(), frame.size());
    ASSERT_EQ(whole, bitwiseCrc16(frame.data(), frame.size()));
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
        Crc16 c;
        c.update(frame.data(), cut);
        c.update(frame.data() + cut, frame.size() - cut);
        EXPECT_EQ(c.value(), whole) << "split at " << cut;
    }
}

// Property: every single-bit error in a frame-sized block is caught.
TEST(Crc16, DetectsAllSingleBitErrors)
{
    std::vector<std::uint8_t> buf(upFrameBytes);
    Rng r(4);
    for (auto &b : buf)
        b = std::uint8_t(r.next());
    std::uint16_t good = crc16(buf.data(), buf.size());
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        EXPECT_NE(crc16(buf.data(), buf.size()), good)
            << "missed flip at bit " << bit;
        buf[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
}

// Property: all double-bit errors in a frame are caught (sampled
// exhaustively for one byte pair stride, randomly otherwise).
TEST(Crc16, DetectsDoubleBitErrors)
{
    std::vector<std::uint8_t> buf(downFrameBytes);
    Rng r(5);
    for (auto &b : buf)
        b = std::uint8_t(r.next());
    std::uint16_t good = crc16(buf.data(), buf.size());
    const std::size_t nbits = buf.size() * 8;
    for (int trial = 0; trial < 5000; ++trial) {
        std::size_t b1 = r.below(nbits);
        std::size_t b2 = r.below(nbits);
        if (b1 == b2)
            continue;
        buf[b1 / 8] ^= std::uint8_t(1u << (b1 % 8));
        buf[b2 / 8] ^= std::uint8_t(1u << (b2 % 8));
        EXPECT_NE(crc16(buf.data(), buf.size()), good);
        buf[b1 / 8] ^= std::uint8_t(1u << (b1 % 8));
        buf[b2 / 8] ^= std::uint8_t(1u << (b2 % 8));
    }
}

// Property: odd-weight errors are always caught (poly divisible by
// x+1).
TEST(Crc16, DetectsTripleBitErrors)
{
    std::vector<std::uint8_t> buf(downFrameBytes);
    Rng r(6);
    for (auto &b : buf)
        b = std::uint8_t(r.next());
    std::uint16_t good = crc16(buf.data(), buf.size());
    const std::size_t nbits = buf.size() * 8;
    for (int trial = 0; trial < 5000; ++trial) {
        std::size_t bits[3];
        bits[0] = r.below(nbits);
        bits[1] = r.below(nbits);
        bits[2] = r.below(nbits);
        if (bits[0] == bits[1] || bits[1] == bits[2]
            || bits[0] == bits[2])
            continue;
        for (auto b : bits)
            buf[b / 8] ^= std::uint8_t(1u << (b % 8));
        EXPECT_NE(crc16(buf.data(), buf.size()), good);
        for (auto b : bits)
            buf[b / 8] ^= std::uint8_t(1u << (b % 8));
    }
}

TEST(Scrambler, RoundTripsWithSyncedPeers)
{
    Scrambler tx(0x1234), rx(0x1234);
    std::vector<std::uint8_t> data(200);
    Rng r(7);
    for (auto &b : data)
        b = std::uint8_t(r.next());
    auto orig = data;
    tx.apply(data.data(), data.size());
    EXPECT_NE(data, orig); // scrambling changed the bytes
    rx.apply(data.data(), data.size());
    EXPECT_EQ(data, orig);
}

TEST(Scrambler, DesyncCorrupts)
{
    Scrambler tx(0xFFFF), rx(0xFFFF);
    rx.skip(1); // one byte of keystream slip
    std::vector<std::uint8_t> data(64, 0xAB);
    auto orig = data;
    tx.apply(data.data(), data.size());
    rx.apply(data.data(), data.size());
    EXPECT_NE(data, orig);
}

// The production scrambler steps 8 bytes, then single bytes, through
// lookup tables; this is the bit-serial Galois reference it must
// match.
struct BitSerialScrambler
{
    std::uint16_t lfsr;

    std::uint8_t
    nextByte()
    {
        std::uint8_t out = 0;
        for (int b = 0; b < 8; ++b) {
            std::uint16_t bit = lfsr & 1;
            lfsr >>= 1;
            if (bit)
                lfsr ^= 0xB400;
            out = std::uint8_t((out << 1) | bit);
        }
        return out;
    }
};

// apply() XORs 8 keystream bytes per step from the word tables and
// finishes the tail through the byte tables. Every start state,
// every length 0-48 (lengths below 8 use only the byte step; the
// range covers the 28 B downstream and 42 B upstream frames and
// every tail length): the bytes and the final state must match the
// bit-serial reference.
TEST(Scrambler, MatchesBitSerialReferenceExhaustively)
{
    constexpr std::size_t maxLen = 48;
    static_assert(upFrameBytes <= maxLen && downFrameBytes <= maxLen);
    std::array<std::uint8_t, maxLen> data{};
    Rng r(8);
    for (auto &b : data)
        b = std::uint8_t(r.next());

    for (unsigned seed = 0; seed < 0x10000; ++seed) {
        // want[n] is data with the first n reference keystream bytes
        // XORed in; stateAfter[n] the reference state after them.
        std::array<std::uint8_t, maxLen> want = data;
        std::array<std::uint16_t, maxLen + 1> stateAfter{};
        BitSerialScrambler ref{std::uint16_t(seed)};
        stateAfter[0] = ref.lfsr;
        for (std::size_t i = 0; i < maxLen; ++i) {
            want[i] ^= ref.nextByte();
            stateAfter[i + 1] = ref.lfsr;
        }
        for (std::size_t len = 0; len <= maxLen; ++len) {
            std::array<std::uint8_t, maxLen> got = data;
            Scrambler fast{std::uint16_t(seed)};
            fast.apply(got.data(), len);
            ASSERT_TRUE(std::equal(got.begin(), got.begin() + len,
                                   want.begin()))
                << "seed " << seed << " len " << len;
            ASSERT_TRUE(std::equal(got.begin() + len, got.end(),
                                   data.begin() + len))
                << "wrote past len: seed " << seed << " len " << len;
            ASSERT_EQ(fast.state(), stateAfter[len])
                << "seed " << seed << " len " << len;
        }
    }
}

// skip(n) must leave the generator exactly where apply() over n bytes
// does: same state, same keystream afterwards.
TEST(Scrambler, SkipMatchesApplyOnZeroBuffer)
{
    for (unsigned seed = 0; seed < 0x10000; ++seed) {
        for (std::size_t len = 0; len <= 48; ++len) {
            Scrambler skipped{std::uint16_t(seed)};
            Scrambler applied{std::uint16_t(seed)};
            std::array<std::uint8_t, 48> zeros{};
            skipped.skip(len);
            applied.apply(zeros.data(), len);
            ASSERT_EQ(skipped.state(), applied.state())
                << "seed " << seed << " len " << len;
        }
    }
    Scrambler a(0xACE1), b(0xACE1);
    std::vector<std::uint8_t> head(1000, 0), tailA(64, 0), tailB(64, 0);
    a.apply(head.data(), head.size());
    b.skip(head.size());
    a.apply(tailA.data(), tailA.size());
    b.apply(tailB.data(), tailB.size());
    EXPECT_EQ(tailA, tailB);
}

// jump<Len>() is skip(Len) through a table: for both frame lengths
// and every start state it must land where skip() and the
// bit-serial reference do.
template <std::size_t Len>
void
expectJumpMatchesSkip()
{
    for (unsigned seed = 0; seed < 0x10000; ++seed) {
        Scrambler jumped{std::uint16_t(seed)};
        Scrambler skipped{std::uint16_t(seed)};
        BitSerialScrambler ref{std::uint16_t(seed)};
        jumped.jump<Len>();
        skipped.skip(Len);
        for (std::size_t i = 0; i < Len; ++i)
            ref.nextByte();
        ASSERT_EQ(jumped.state(), skipped.state())
            << "seed " << seed << " len " << Len;
        ASSERT_EQ(jumped.state(), ref.lfsr)
            << "seed " << seed << " len " << Len;
    }
}

TEST(Scrambler, FrameJumpMatchesSkipAndReferenceExhaustively)
{
    expectJumpMatchesSkip<downFrameBytes>();
    expectJumpMatchesSkip<upFrameBytes>();
}

TEST(Scrambler, KeystreamHasTransitions)
{
    // The whole point of scrambling: long runs of identical payload
    // bytes must produce varied wire bytes.
    Scrambler s(0xFFFF);
    std::vector<std::uint8_t> data(256, 0x00);
    s.apply(data.data(), data.size());
    int distinct = 0;
    std::vector<bool> seen(256, false);
    for (auto b : data)
        if (!seen[b]) {
            seen[b] = true;
            ++distinct;
        }
    EXPECT_GT(distinct, 100);
}

} // namespace
