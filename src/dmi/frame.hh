/**
 * @file
 * DMI frame formats.
 *
 * The downstream link has 14 lanes and the upstream link 21 lanes
 * (paper §2.2); with the 32:1 link-to-fabric gearbox this yields two
 * 224-bit (28 B) downstream frames and two 336-bit (42 B) upstream
 * frames per 250 MHz fabric cycle. Commands and store data are
 * interspersed in downstream frames; read data and completion (done)
 * indications travel upstream. Every frame carries a sequence ID, a
 * piggy-backed ACK and a CRC-16 (§2.3).
 *
 * The exact bit layout of IBM's DMI frames is not public; we define a
 * byte-aligned layout with the same field inventory and the same
 * frame sizes, which preserves all protocol behaviour (serialization
 * time, payload capacity, error detection).
 */

#ifndef CONTUTTO_DMI_FRAME_HH
#define CONTUTTO_DMI_FRAME_HH

#include <array>
#include <cstdint>
#include <string>

#include "dmi/command.hh"

namespace contutto::dmi
{

/** Serialized downstream frame size: 224 bits on 14 lanes. */
constexpr std::size_t downFrameBytes = 28;
/** Serialized upstream frame size: 336 bits on 21 lanes. */
constexpr std::size_t upFrameBytes = 42;

/** Write-data chunk carried per downstream data frame. */
constexpr std::size_t downDataChunk = 16;
/** Read-data chunk carried per upstream data frame. */
constexpr std::size_t upDataChunk = 32;

/** Downstream data frames per full cache line. */
constexpr unsigned downFramesPerLine = cacheLineSize / downDataChunk;
/** Upstream data frames per full cache line. */
constexpr unsigned upFramesPerLine = cacheLineSize / upDataChunk;

/** The sub-index value marking a byte-enable map data frame. */
constexpr std::uint8_t enableMapSubIndex = 0xFF;

/** Content type of a frame (both directions share the enum). */
enum class FrameType : std::uint8_t
{
    idle,        ///< Keep-alive; carries ACKs only.
    train,       ///< Training pattern / FRTL signature.
    command,     ///< Downstream: a MemCommand header.
    writeData,   ///< Downstream: 16 B chunk of store data.
    readData,    ///< Upstream: 32 B chunk of load data.
    done,        ///< Upstream: 1-4 completed tags.
    swapResult,  ///< Upstream: condSwap outcome.
};

const char *frameTypeName(FrameType t);

/** Raw bytes as they appear on the lanes. */
struct WireFrame
{
    std::array<std::uint8_t, upFrameBytes> bytes{};
    std::uint8_t len = 0; ///< downFrameBytes or upFrameBytes.
};

/**
 * A downstream (processor to buffer) frame.
 *
 * Layout: [0]=type [1]=seq [2]=flags(bit0 ackValid) [3]=ackSeq
 * [4..25]=payload [26..27]=CRC16.
 */
struct DownFrame
{
    FrameType type = FrameType::idle;
    std::uint8_t seq = 0;
    /** False for out-of-stream frames (idle ACK carriers, training). */
    bool seqValid = false;
    bool ackValid = false;
    std::uint8_t ackSeq = 0;

    // command payload
    CmdType cmdType = CmdType::read128;
    std::uint8_t tag = 0;
    Addr addr = 0; ///< 48-bit, 128 B aligned.
    /**
     * Trace id, serialized in the command payload's spare bytes
     * [12..19] so the buffer side can continue the host's trace.
     * Other frame types carry it in-memory only.
     */
    TraceId traceId = noTraceId;

    // writeData payload: chunk subIndex 0..7, or enableMapSubIndex.
    std::uint8_t subIndex = 0;
    std::array<std::uint8_t, downDataChunk> data{};

    // train payload
    std::uint32_t trainSig = 0;

    /** Pack to wire bytes, computing the CRC. */
    WireFrame serialize() const;

    /**
     * Unpack from wire bytes. With @p checkCrc false the caller
     * vouches that @p wire is a frame serialize() sealed.
     * @return false when the CRC is checked and does not match
     *         (@p out is then untouched).
     */
    static bool deserialize(const WireFrame &wire, DownFrame &out,
                            bool checkCrc = true);

    std::string toString() const;
};

/**
 * An upstream (buffer to processor) frame.
 *
 * Layout: [0]=type [1]=seq [2]=flags [3]=ackSeq [4..39]=payload
 * [40..41]=CRC16.
 */
struct UpFrame
{
    FrameType type = FrameType::idle;
    std::uint8_t seq = 0;
    /** False for out-of-stream frames (idle ACK carriers, training). */
    bool seqValid = false;
    bool ackValid = false;
    std::uint8_t ackSeq = 0;

    // readData payload
    std::uint8_t tag = 0;
    std::uint8_t subIndex = 0;
    std::array<std::uint8_t, upDataChunk> data{};

    // done payload
    std::uint8_t doneCount = 0;
    std::array<std::uint8_t, 4> doneTags{};

    // swapResult payload
    bool swapSucceeded = false;

    /** readData payload flagged uncorrectable (flags bit 3). */
    bool poisoned = false;

    // train payload
    std::uint32_t trainSig = 0;

    /**
     * Trace id of the command this response belongs to. The upstream
     * payload has no spare room for it, so it is in-memory metadata
     * only (both link endpoints live in the same simulation); the
     * host side re-derives it from the tag anyway.
     */
    TraceId traceId = noTraceId;

    WireFrame serialize() const;
    /** As DownFrame::deserialize. */
    static bool deserialize(const WireFrame &wire, UpFrame &out,
                            bool checkCrc = true);

    std::string toString() const;
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_FRAME_HH
