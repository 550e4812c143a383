/**
 * @file
 * SEC-DED ECC codec for the memory path.
 *
 * Classic Hamming(72,64) with an overall parity bit, the geometry of
 * x72 ECC DIMMs: every 64-bit data word carries 8 check bits, so a
 * 64 B line is protected by 8 check bytes. Single-bit errors (in data
 * or check bits) are corrected; double-bit errors are detected and
 * reported uncorrectable so the datapath can poison the response
 * instead of returning garbage.
 *
 * Header-only on purpose: mem (MemImage) derives a word's check byte
 * from its data and decodes the words that carry an injected fault,
 * while the higher-level RAS machinery (patrol scrubber, fault
 * injector) lives in ct_ras; keeping the codec free of link
 * dependencies avoids a library cycle.
 */

#ifndef CONTUTTO_RAS_ECC_HH
#define CONTUTTO_RAS_ECC_HH

#include <array>
#include <cstdint>

namespace contutto::ras
{

/** Outcome of decoding one protected word. */
enum class EccStatus : std::uint8_t
{
    clean,         ///< Syndrome zero, parity good.
    corrected,     ///< Single-bit error located and repaired.
    uncorrectable, ///< Double-bit (or worse) error detected.
};

namespace detail
{

/**
 * Codeword position (1-based, powers of two reserved for check
 * bits) of each of the 64 data bits.
 */
inline const std::array<std::uint8_t, 64> &
dataPositions()
{
    static const std::array<std::uint8_t, 64> table = [] {
        std::array<std::uint8_t, 64> t{};
        unsigned pos = 1;
        for (unsigned i = 0; i < 64; ++i) {
            while ((pos & (pos - 1)) == 0) // skip powers of two
                ++pos;
            t[i] = std::uint8_t(pos++);
        }
        return t;
    }();
    return table;
}

/** Map a codeword position back to its data-bit index; -1 if none. */
inline const std::array<std::int8_t, 128> &
positionToData()
{
    static const std::array<std::int8_t, 128> table = [] {
        std::array<std::int8_t, 128> t{};
        t.fill(-1);
        for (unsigned i = 0; i < 64; ++i)
            t[dataPositions()[i]] = std::int8_t(i);
        return t;
    }();
    return table;
}

/** XOR of the codeword positions of all set data bits. */
inline unsigned
dataSyndrome(std::uint64_t word)
{
    unsigned syn = 0;
    while (word != 0) {
        unsigned i = unsigned(__builtin_ctzll(word));
        syn ^= dataPositions()[i];
        word &= word - 1;
    }
    return syn;
}

} // namespace detail

/**
 * Compute the 8 check bits for a 64-bit word: 7 Hamming check bits
 * (bits 0..6) plus the overall parity (bit 7).
 */
inline std::uint8_t
eccEncode(std::uint64_t word)
{
    unsigned syn = detail::dataSyndrome(word);
    std::uint8_t check = std::uint8_t(syn & 0x7F);
    unsigned ones = unsigned(__builtin_popcountll(word))
        + unsigned(__builtin_popcount(check));
    if (ones & 1)
        check |= 0x80; // overall parity covers data + check bits
    return check;
}

/** Result of decoding one word against its stored check byte. */
struct EccDecode
{
    EccStatus status = EccStatus::clean;
    std::uint64_t data = 0;   ///< Corrected data word.
    std::uint8_t check = 0;   ///< Corrected check byte.
};

/**
 * Verify @p word against @p check; correct a single flipped bit in
 * either the data or the check byte.
 */
inline EccDecode
eccDecode(std::uint64_t word, std::uint8_t check)
{
    EccDecode out;
    out.data = word;
    out.check = check;

    unsigned syn = detail::dataSyndrome(word) ^ (check & 0x7F);
    unsigned ones = unsigned(__builtin_popcountll(word))
        + unsigned(__builtin_popcount(check));
    bool parity_bad = (ones & 1) != 0;

    if (syn == 0 && !parity_bad)
        return out; // clean

    if (!parity_bad) {
        // Even overall parity with a nonzero syndrome means an even
        // number of flipped bits: detected but not correctable.
        out.status = EccStatus::uncorrectable;
        return out;
    }

    // Odd number of errors: assume one and locate it.
    out.status = EccStatus::corrected;
    if (syn == 0) {
        out.check = std::uint8_t(check ^ 0x80); // parity bit itself
    } else if ((syn & (syn - 1)) == 0) {
        // A power-of-two syndrome points at a Hamming check bit.
        unsigned idx = unsigned(__builtin_ctz(syn));
        out.check = std::uint8_t(check ^ (1u << idx));
    } else {
        std::int8_t bit = detail::positionToData()[syn];
        if (bit < 0) {
            // Syndrome points outside the codeword: multi-bit error.
            out.status = EccStatus::uncorrectable;
            return out;
        }
        out.data = word ^ (std::uint64_t(1) << unsigned(bit));
    }
    return out;
}

} // namespace contutto::ras

#endif // CONTUTTO_RAS_ECC_HH
