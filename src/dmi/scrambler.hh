/**
 * @file
 * Synchronous (additive) data scrambler for the DMI lanes.
 *
 * High-speed serial links scramble data to guarantee transition
 * density for clock recovery (paper §3.3(i): "the data gets
 * descrambled and forwarded 2 frames/cycle to MBI"). We model a
 * synchronous scrambler using the PCIe/SAS LFSR polynomial
 * x^16 + x^5 + x^4 + x^3 + 1. Both ends reset the LFSR to a common
 * seed at the end of link training, so descrambling is XOR with the
 * identical keystream.
 */

#ifndef CONTUTTO_DMI_SCRAMBLER_HH
#define CONTUTTO_DMI_SCRAMBLER_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace contutto::dmi
{

namespace detail
{

struct ScramblerTables
{
    std::array<std::uint16_t, 256> feedback{};
    std::array<std::uint8_t, 256> output{};
};

constexpr ScramblerTables
makeScramblerTables()
{
    // Derived from the bit-serial Galois step of
    // x^16 + x^5 + x^4 + x^3 + 1: a tap XORed in at sub-step b is
    // shifted right by the remaining (7 - b) sub-steps.
    ScramblerTables t{};
    for (unsigned low = 0; low < 256; ++low) {
        std::uint16_t fb = 0;
        std::uint8_t out = 0;
        for (int b = 0; b < 8; ++b) {
            unsigned bit = (low >> b) & 1;
            if (bit)
                fb ^= std::uint16_t(0xB400u >> (7 - b));
            out = std::uint8_t((out << 1) | bit);
        }
        t.feedback[low] = fb;
        t.output[low] = out;
    }
    return t;
}

inline constexpr ScramblerTables scramblerTables =
    makeScramblerTables();

/**
 * Word-step tables: 8 keystream bytes, and the state after them, as
 * a function of the starting state. The byte step is linear over
 * GF(2) in the 16-bit state (both byte tables are XORs of per-bit
 * contributions), so a function of the state splits into its low-
 * and high-byte halves: f(s) = f_lo[s & 0xFF] ^ f_hi[s >> 8]. Byte
 * i of a keystream word sits at bits 8i..8i+7.
 */
struct ScramblerWordTables
{
    std::array<std::uint64_t, 256> keyLo{};
    std::array<std::uint64_t, 256> keyHi{};
    std::array<std::uint16_t, 256> stateLo{};
    std::array<std::uint16_t, 256> stateHi{};
};

constexpr ScramblerWordTables
makeScramblerWordTables()
{
    ScramblerWordTables t{};
    for (unsigned x = 0; x < 256; ++x) {
        for (int half = 0; half < 2; ++half) {
            std::uint16_t s = std::uint16_t(half ? x << 8 : x);
            std::uint64_t key = 0;
            for (int i = 0; i < 8; ++i) {
                const std::uint8_t low = std::uint8_t(s & 0xFF);
                key |= std::uint64_t(scramblerTables.output[low])
                       << (8 * i);
                s = std::uint16_t((s >> 8)
                                  ^ scramblerTables.feedback[low]);
            }
            (half ? t.keyHi : t.keyLo)[x] = key;
            (half ? t.stateHi : t.stateLo)[x] = s;
        }
    }
    return t;
}

inline constexpr ScramblerWordTables scramblerWordTables =
    makeScramblerWordTables();

/** The state after a fixed number of keystream bytes, split into
 *  low- and high-byte halves as the word tables are. */
struct ScramblerJumpTable
{
    std::array<std::uint16_t, 256> lo{};
    std::array<std::uint16_t, 256> hi{};
};

} // namespace detail

/**
 * LFSR keystream generator; scramble and descramble are the same.
 *
 * The generator steps a whole byte at a time. All taps of the Galois
 * register (0xB400: bits 10, 12, 13, 15) sit in the high byte, so
 * feedback injected during an 8-bit window can never shift down to
 * bit 0 within that window: the eight emitted bits are exactly the
 * (reversed) low byte of the starting state, and the eight feedback
 * injections commute into a single XOR mask indexed by that byte.
 * Two 256-entry tables therefore reproduce the bit-serial reference
 * exactly.
 *
 * apply() and skip() take 8 bytes per step through the word tables
 * (see ScramblerWordTables: the byte step is linear, so 8 steps are
 * two lookups per half-state) and finish the tail a byte at a time.
 * The keystream word is XORed into the buffer byte by byte from its
 * explicit little-endian composition, so the wire bytes do not
 * depend on host endianness. jump<Len>() advances by a whole frame
 * without touching data, through two 256-entry tables per length.
 * tests/dmi/test_crc_scrambler.cc proves both steps against the
 * bit-serial reference over the full 2^16 state space, bytes and
 * final state, for every length 0-48, and the jump for both frame
 * lengths against skip() and the reference.
 */
class Scrambler
{
  public:
    explicit constexpr Scrambler(std::uint16_t seed = 0xFFFF)
        : lfsr_(seed)
    {}

    /** Re-seed (both ends do this when training completes). */
    void reset(std::uint16_t seed = 0xFFFF) { lfsr_ = seed; }

    /** XOR the buffer with the next @p len keystream bytes. */
    void
    apply(std::uint8_t *data, std::size_t len)
    {
        // The state lives in a local: a store through data could
        // alias lfsr_ and would pin it to memory.
        std::uint16_t s = lfsr_;
        for (; len >= 8; data += 8, len -= 8) {
            const std::uint64_t key = nextWord(s);
            // Unrolled so the compiler merges it into one 8-byte XOR.
            data[0] ^= std::uint8_t(key);
            data[1] ^= std::uint8_t(key >> 8);
            data[2] ^= std::uint8_t(key >> 16);
            data[3] ^= std::uint8_t(key >> 24);
            data[4] ^= std::uint8_t(key >> 32);
            data[5] ^= std::uint8_t(key >> 40);
            data[6] ^= std::uint8_t(key >> 48);
            data[7] ^= std::uint8_t(key >> 56);
        }
        for (std::size_t i = 0; i < len; ++i)
            data[i] ^= nextByte(s);
        lfsr_ = s;
    }

    /** Advance the keystream without data (idle lanes). */
    constexpr void
    skip(std::size_t len)
    {
        for (; len >= 8; len -= 8)
            nextWord(lfsr_);
        for (std::size_t i = 0; i < len; ++i)
            nextByte(lfsr_);
    }

    /**
     * skip(Len) in two lookups. The state after Len bytes is linear
     * in the starting state, so it splits into low- and high-byte
     * halves; the table is built from skip(Len) itself.
     */
    template <std::size_t Len>
    void
    jump()
    {
        static constexpr detail::ScramblerJumpTable t = [] {
            detail::ScramblerJumpTable j{};
            for (unsigned x = 0; x < 256; ++x) {
                Scrambler lo{std::uint16_t(x)};
                Scrambler hi{std::uint16_t(x << 8)};
                lo.skip(Len);
                hi.skip(Len);
                j.lo[x] = lo.state();
                j.hi[x] = hi.state();
            }
            return j;
        }();
        lfsr_ = std::uint16_t(t.lo[lfsr_ & 0xFF] ^ t.hi[lfsr_ >> 8]);
    }

    /** Current LFSR state, for checking end-to-end sync. */
    constexpr std::uint16_t state() const { return lfsr_; }

  private:
    /** Step @p s by 8 bytes; returns them, byte i at bits 8i..8i+7. */
    static constexpr std::uint64_t
    nextWord(std::uint16_t &s)
    {
        const auto &w = detail::scramblerWordTables;
        const std::size_t lo = s & 0xFF, hi = s >> 8;
        s = std::uint16_t(w.stateLo[lo] ^ w.stateHi[hi]);
        return w.keyLo[lo] ^ w.keyHi[hi];
    }

    /** Step @p s by one byte; returns it. */
    static constexpr std::uint8_t
    nextByte(std::uint16_t &s)
    {
        const std::uint8_t low = std::uint8_t(s & 0xFF);
        s = std::uint16_t((s >> 8) ^ detail::scramblerTables.feedback[low]);
        return detail::scramblerTables.output[low];
    }

    std::uint16_t lfsr_;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_SCRAMBLER_HH
