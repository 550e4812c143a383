#include "dmi/frame.hh"

#include <cstring>

#include "dmi/crc.hh"
#include "sim/logging.hh"

namespace contutto::dmi
{

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::idle: return "idle";
      case FrameType::train: return "train";
      case FrameType::command: return "command";
      case FrameType::writeData: return "writeData";
      case FrameType::readData: return "readData";
      case FrameType::done: return "done";
      case FrameType::swapResult: return "swapResult";
    }
    return "?";
}

namespace
{

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = std::uint8_t(v);
    p[1] = std::uint8_t(v >> 8);
    p[2] = std::uint8_t(v >> 16);
    p[3] = std::uint8_t(v >> 24);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8)
        | (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = std::uint8_t(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

void
putAddr48(std::uint8_t *p, Addr a)
{
    for (int i = 0; i < 6; ++i)
        p[i] = std::uint8_t(a >> (8 * i));
}

Addr
getAddr48(const std::uint8_t *p)
{
    Addr a = 0;
    for (int i = 0; i < 6; ++i)
        a |= Addr(p[i]) << (8 * i);
    return a;
}

void
sealCrc(WireFrame &w)
{
    std::uint16_t c = crc16(w.bytes.data(), w.len - 2u);
    w.bytes[w.len - 2u] = std::uint8_t(c >> 8);
    w.bytes[w.len - 1u] = std::uint8_t(c);
}

bool
crcMatches(const WireFrame &w)
{
    std::uint16_t c = crc16(w.bytes.data(), w.len - 2u);
    return w.bytes[w.len - 2u] == std::uint8_t(c >> 8)
        && w.bytes[w.len - 1u] == std::uint8_t(c);
}

} // namespace

WireFrame
DownFrame::serialize() const
{
    WireFrame w;
    w.len = downFrameBytes;
    auto *b = w.bytes.data();
    b[0] = std::uint8_t(type);
    b[1] = seq;
    b[2] = std::uint8_t((ackValid ? 1 : 0) | (seqValid ? 4 : 0));
    b[3] = ackSeq;
    switch (type) {
      case FrameType::command:
        b[4] = std::uint8_t(cmdType);
        b[5] = tag;
        // Addresses are 128 B aligned; ship addr >> 7 in 48 bits.
        putAddr48(b + 6, addr >> 7);
        // Trace id rides in the command payload's spare bytes.
        putU64(b + 12, traceId);
        break;
      case FrameType::writeData:
        b[4] = tag;
        b[5] = subIndex;
        std::memcpy(b + 6, data.data(), downDataChunk);
        break;
      case FrameType::train:
        putU32(b + 4, trainSig);
        break;
      case FrameType::idle:
        break;
      default:
        panic("downstream frame with upstream type %s",
              frameTypeName(type));
    }
    sealCrc(w);
    return w;
}

bool
DownFrame::deserialize(const WireFrame &wire, DownFrame &out,
                        bool checkCrc)
{
    ct_assert(wire.len == downFrameBytes);
    if (checkCrc && !crcMatches(wire))
        return false;
    const auto *b = wire.bytes.data();
    out = DownFrame{};
    out.type = FrameType(b[0]);
    out.seq = b[1];
    out.ackValid = (b[2] & 1) != 0;
    out.seqValid = (b[2] & 4) != 0;
    out.ackSeq = b[3];
    switch (out.type) {
      case FrameType::command:
        out.cmdType = CmdType(b[4]);
        out.tag = b[5];
        out.addr = getAddr48(b + 6) << 7;
        out.traceId = getU64(b + 12);
        break;
      case FrameType::writeData:
        out.tag = b[4];
        out.subIndex = b[5];
        std::memcpy(out.data.data(), b + 6, downDataChunk);
        break;
      case FrameType::train:
        out.trainSig = getU32(b + 4);
        break;
      default:
        break;
    }
    return true;
}

std::string
DownFrame::toString() const
{
    return std::string("down[") + frameTypeName(type) + " seq="
        + std::to_string(seq) + " tag=" + std::to_string(tag) + "]";
}

WireFrame
UpFrame::serialize() const
{
    WireFrame w;
    w.len = upFrameBytes;
    auto *b = w.bytes.data();
    b[0] = std::uint8_t(type);
    b[1] = seq;
    b[2] = std::uint8_t((ackValid ? 1 : 0) | (swapSucceeded ? 2 : 0)
                        | (seqValid ? 4 : 0) | (poisoned ? 8 : 0));
    b[3] = ackSeq;
    switch (type) {
      case FrameType::readData:
        b[4] = tag;
        b[5] = subIndex;
        std::memcpy(b + 6, data.data(), upDataChunk);
        break;
      case FrameType::done:
        ct_assert(doneCount >= 1 && doneCount <= 4);
        b[4] = doneCount;
        std::memcpy(b + 5, doneTags.data(), 4);
        break;
      case FrameType::swapResult:
        b[4] = tag;
        std::memcpy(b + 6, data.data(), 8);
        break;
      case FrameType::train:
        putU32(b + 4, trainSig);
        break;
      case FrameType::idle:
        break;
      default:
        panic("upstream frame with downstream type %s",
              frameTypeName(type));
    }
    sealCrc(w);
    return w;
}

bool
UpFrame::deserialize(const WireFrame &wire, UpFrame &out,
                      bool checkCrc)
{
    ct_assert(wire.len == upFrameBytes);
    if (checkCrc && !crcMatches(wire))
        return false;
    const auto *b = wire.bytes.data();
    out = UpFrame{};
    out.type = FrameType(b[0]);
    out.seq = b[1];
    out.ackValid = (b[2] & 1) != 0;
    out.swapSucceeded = (b[2] & 2) != 0;
    out.seqValid = (b[2] & 4) != 0;
    out.poisoned = (b[2] & 8) != 0;
    out.ackSeq = b[3];
    switch (out.type) {
      case FrameType::readData:
        out.tag = b[4];
        out.subIndex = b[5];
        std::memcpy(out.data.data(), b + 6, upDataChunk);
        break;
      case FrameType::done:
        out.doneCount = b[4];
        std::memcpy(out.doneTags.data(), b + 5, 4);
        break;
      case FrameType::swapResult:
        out.tag = b[4];
        std::memcpy(out.data.data(), b + 6, 8);
        break;
      case FrameType::train:
        out.trainSig = getU32(b + 4);
        break;
      default:
        break;
    }
    return true;
}

std::string
UpFrame::toString() const
{
    return std::string("up[") + frameTypeName(type) + " seq="
        + std::to_string(seq) + " tag=" + std::to_string(tag) + "]";
}

std::string
MemCommand::toString() const
{
    return "cmd[type=" + std::to_string(int(type)) + " tag="
        + std::to_string(tag) + " addr=" + std::to_string(addr) + "]";
}

std::string
MemResponse::toString() const
{
    return "resp[type=" + std::to_string(int(type)) + " tag="
        + std::to_string(tag) + "]";
}

} // namespace contutto::dmi
