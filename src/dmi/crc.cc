#include "dmi/crc.hh"

#include <array>

namespace contutto::dmi
{

namespace
{

constexpr std::uint16_t poly = 0x1021;

/**
 * Slice-by-8 tables. slice[0] is the classic byte table: the CRC of
 * byte b fed into a zero register. slice[k][b] is the CRC of byte b
 * followed by k zero bytes, i.e. slice[k-1][b] pushed through one
 * more zero-byte step. CRC is linear over GF(2), so the register
 * after 8 bytes is the XOR of each byte's contribution, with the
 * 16-bit starting state folded into the first two bytes.
 */
using SliceTables = std::array<std::array<std::uint16_t, 256>, 8>;

constexpr SliceTables
makeTables()
{
    SliceTables t{};
    for (int b = 0; b < 256; ++b) {
        std::uint16_t crc = std::uint16_t(b << 8);
        for (int i = 0; i < 8; ++i) {
            crc = (crc & 0x8000) ? std::uint16_t((crc << 1) ^ poly)
                                 : std::uint16_t(crc << 1);
        }
        t[0][std::size_t(b)] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t b = 0; b < 256; ++b) {
            const std::uint16_t prev = t[k - 1][b];
            t[k][b] = std::uint16_t((prev << 8) ^ t[0][prev >> 8]);
        }
    return t;
}

constexpr SliceTables slice = makeTables();

} // namespace

void
Crc16::update(const std::uint8_t *data, std::size_t len)
{
    std::uint16_t crc = state_;
    for (; len >= 8; data += 8, len -= 8) {
        crc = std::uint16_t(slice[7][(crc >> 8) ^ data[0]]
                            ^ slice[6][(crc & 0xFF) ^ data[1]]
                            ^ slice[5][data[2]] ^ slice[4][data[3]]
                            ^ slice[3][data[4]] ^ slice[2][data[5]]
                            ^ slice[1][data[6]] ^ slice[0][data[7]]);
    }
    for (std::size_t i = 0; i < len; ++i)
        crc = std::uint16_t((crc << 8)
                            ^ slice[0][((crc >> 8) ^ data[i]) & 0xFF]);
    state_ = crc;
}

std::uint16_t
crc16(const std::uint8_t *data, std::size_t len)
{
    Crc16 c;
    c.update(data, len);
    return c.value();
}

} // namespace contutto::dmi
