/**
 * @file
 * CRC-16/CCITT frame protection for the DMI link.
 *
 * Both upstream and downstream DMI frames are protected by a "strong
 * cyclic redundancy check" (paper §2.3). We use CRC-16/CCITT-FALSE
 * (poly 0x1021, init 0xFFFF): its generator polynomial is divisible
 * by (x + 1), so every odd-weight error is detected, and all 1- and
 * 2-bit errors are detected for any block much shorter than the
 * 32767-bit period — DMI frames are 224/336 bits.
 *
 * Every frame is sealed on send, and checked on receipt when the
 * lanes touched it (dmi/channel.hh), so the kernel is slice-by-8:
 * eight 256-entry tables (4 KiB, built constexpr from the byte
 * table) fold 8 bytes per step, and a byte loop takes the tail. CRC
 * is linear over GF(2), so the register after 8 bytes is the XOR of
 * each byte's contribution shifted through the zero bytes after it.
 * The kernel reads bytes, not words, so its result does not depend
 * on host endianness.
 * tests/dmi/test_crc_scrambler.cc checks it against a bit-serial
 * reference for every length 0-64 and every split of a 42 B frame.
 */

#ifndef CONTUTTO_DMI_CRC_HH
#define CONTUTTO_DMI_CRC_HH

#include <cstddef>
#include <cstdint>

namespace contutto::dmi
{

/** CRC-16/CCITT-FALSE over a byte buffer. */
std::uint16_t crc16(const std::uint8_t *data, std::size_t len);

/** Incremental form for multi-chunk frames. */
class Crc16
{
  public:
    /** Feed @p len bytes into the running CRC. */
    void update(const std::uint8_t *data, std::size_t len);

    /** Current CRC value. */
    std::uint16_t value() const { return state_; }

    /** Restart from the initial value. */
    void reset() { state_ = 0xFFFF; }

  private:
    std::uint16_t state_ = 0xFFFF;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_CRC_HH
