/**
 * @file
 * The binary memory-trace file format.
 *
 * A trace is the channel-trip stimulus of one run — every off-chip
 * memory access, timestamped — captured so real program behaviour
 * can be replayed against Centaur, ConTutto at any knob setting, or
 * any memory technology without re-running the program. Because
 * traces are durable on-disk inputs to campaigns, the format is
 * versioned and checksummed end to end; a decoder never trusts a
 * byte it has not validated.
 *
 * On disk (little-endian, like checkpoints):
 *
 *   header  (16 B)  magic "CTMTRC1\n" | u32 version | u32 reserved
 *   records (24 B each, fixed)
 *           u64 tickDelta   ps since the previous record's issue
 *                           (the first record: since tick 0)
 *           u64 addr        physical address
 *           u8  op          Op below (read/write, dependent forms)
 *           u8  sizeLog2    log2 of the access size in bytes
 *           u16 threadId    capturing shard / thread
 *           u32 reserved    must be zero
 *   footer  (16 B)  u64 recordCount | u64 checksum
 *
 * The checksum is ckpt::WordSum (sim/checkpoint.hh: FNV-1a taken a
 * 64-bit word at a time, with a shift that carries each multiply's
 * high bits down) over every byte that precedes it: the header, all
 * records, and the recordCount field, each a whole number of words.
 * A truncated file, a flipped bit anywhere, or a miscounted footer is
 * rejected at open with a typed trace::Error — never replayed as
 * silent garbage. Version 1 sealed the same layout with byte-wise
 * FNV-1a, at one multiply per byte; its files are refused as
 * badVersion (an older build's `trace_tool convert --to=text` turns
 * one into text, which carries no version).
 */

#ifndef CONTUTTO_TRACE_FORMAT_HH
#define CONTUTTO_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace contutto::trace
{

/** What one record did on the channel. */
enum class Op : std::uint8_t
{
    read = 0,
    write = 1,
    /** Dependent forms: the capture-side driver serialized this
     *  access behind all earlier ones (pointer chase). Window-mode
     *  replay honours the flag; timed replay does not need it. */
    depRead = 2,
    depWrite = 3,
};

constexpr std::uint8_t numOps = 4;

constexpr bool
opIsWrite(Op op)
{
    return op == Op::write || op == Op::depWrite;
}

constexpr bool
opIsDependent(Op op)
{
    return op == Op::depRead || op == Op::depWrite;
}

constexpr Op
makeOp(bool isWrite, bool dependent)
{
    return dependent ? (isWrite ? Op::depWrite : Op::depRead)
                     : (isWrite ? Op::write : Op::read);
}

/** One decoded trace record. */
struct Record
{
    /** Ticks since the previous record's issue (first: since 0). */
    Tick tickDelta = 0;
    Addr addr = 0;
    Op op = Op::read;
    /** log2 of the access size in bytes (7 = a 128 B line). */
    std::uint8_t sizeLog2 = 7;
    /** Capturing shard / thread. */
    std::uint16_t threadId = 0;

    bool
    operator==(const Record &o) const
    {
        return tickDelta == o.tickDelta && addr == o.addr
            && op == o.op && sizeLog2 == o.sizeLog2
            && threadId == o.threadId;
    }
};

/** @{ Fixed layout sizes (bytes). */
constexpr std::size_t headerBytes = 16;
constexpr std::size_t recordBytes = 24;
constexpr std::size_t footerBytes = 16;
/** @} */

/** The 8-byte file magic. */
constexpr char fileMagic[8] = {'C', 'T', 'M', 'T', 'R', 'C', '1',
                               '\n'};

/** Current format version. */
constexpr std::uint32_t formatVersion = 2;

/** The largest sane sizeLog2 (4 KiB); larger marks a bad record. */
constexpr std::uint8_t maxSizeLog2 = 12;

/** Why a trace file was rejected. */
enum class ErrorCode
{
    ioError,     ///< open/read/write/mmap syscall failure
    tooShort,    ///< empty file or shorter than header+footer
    badMagic,    ///< first 8 bytes are not a trace file's
    badVersion,  ///< format version this decoder does not speak
    badLength,   ///< byte length not header + N*record + footer
    badCount,    ///< footer recordCount disagrees with the length
    badChecksum, ///< WordSum mismatch: corruption or truncation
    badRecord,   ///< record payload invalid (op/size/reserved)
    shortWrite,  ///< writer could not land every byte durably
};

/** Stable spelling of @p code for messages and tests. */
const char *errorCodeName(ErrorCode code);

/** Raised on any malformed, corrupt, or unwritable trace. */
class Error : public std::runtime_error
{
  public:
    Error(ErrorCode code, const std::string &what)
        : std::runtime_error(std::string(errorCodeName(code)) + ": "
                             + what),
          code_(code)
    {}

    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** @{ Raw (de)serialization of the fixed layouts. Decoding checks
 *  the payload (op range, sizeLog2 cap, reserved zero) and throws
 *  Error(badRecord) — a matching checksum does not excuse an
 *  impossible record. */
void encodeHeader(std::uint8_t out[headerBytes]);
void encodeRecord(const Record &rec, std::uint8_t out[recordBytes]);
void encodeFooter(std::uint64_t recordCount, std::uint64_t checksum,
                  std::uint8_t out[footerBytes]);
Record decodeRecord(const std::uint8_t in[recordBytes]);
/** @} */

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_FORMAT_HH
