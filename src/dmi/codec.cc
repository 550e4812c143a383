#include "dmi/codec.hh"

#include <cstring>

#include "sim/logging.hh"

namespace contutto::dmi
{

CommandFrames
encodeCommand(const MemCommand &cmd)
{
    ct_assert(cmd.tag < numTags);
    ct_assert((cmd.addr & (cacheLineSize - 1)) == 0);

    CommandFrames frames;
    DownFrame &header = frames.emplace_back();
    header.type = FrameType::command;
    header.cmdType = cmd.type;
    header.tag = cmd.tag;
    header.addr = cmd.addr;
    header.traceId = cmd.traceId;

    if (cmd.type == CmdType::partialWrite) {
        // Ship the 128-bit byte-enable map first.
        DownFrame &en = frames.emplace_back();
        en.type = FrameType::writeData;
        en.tag = cmd.tag;
        en.subIndex = enableMapSubIndex;
        en.traceId = cmd.traceId;
        for (std::size_t byte = 0; byte < downDataChunk; ++byte) {
            std::uint8_t v = 0;
            for (int bit = 0; bit < 8; ++bit)
                if (cmd.enables[byte * 8 + bit])
                    v |= std::uint8_t(1u << bit);
            en.data[byte] = v;
        }
    }

    if (hasWriteData(cmd.type)) {
        for (unsigned i = 0; i < downFramesPerLine; ++i) {
            DownFrame &d = frames.emplace_back();
            d.type = FrameType::writeData;
            d.tag = cmd.tag;
            d.subIndex = std::uint8_t(i);
            d.traceId = cmd.traceId;
            std::memcpy(d.data.data(),
                        cmd.data.data() + i * downDataChunk,
                        downDataChunk);
        }
    }
    return frames;
}

ResponseFrames
encodeResponse(const MemResponse &resp)
{
    ct_assert(resp.tag < numTags);
    ResponseFrames frames;
    switch (resp.type) {
      case RespType::readData:
        for (unsigned i = 0; i < upFramesPerLine; ++i) {
            UpFrame &u = frames.emplace_back();
            u.type = FrameType::readData;
            u.tag = resp.tag;
            u.subIndex = std::uint8_t(i);
            u.poisoned = resp.poisoned;
            u.traceId = resp.traceId;
            std::memcpy(u.data.data(),
                        resp.data.data() + i * upDataChunk,
                        upDataChunk);
        }
        break;
      case RespType::done: {
        UpFrame &u = frames.emplace_back();
        u.type = FrameType::done;
        u.doneCount = 1;
        u.doneTags[0] = resp.tag;
        u.traceId = resp.traceId;
        break;
      }
      case RespType::swapOld: {
        UpFrame &u = frames.emplace_back();
        u.type = FrameType::swapResult;
        u.tag = resp.tag;
        u.swapSucceeded = resp.swapSucceeded;
        u.traceId = resp.traceId;
        std::memcpy(u.data.data(), resp.data.data(), 8);
        break;
      }
    }
    return frames;
}

std::optional<MemCommand>
CommandAssembler::finishIfComplete(Pending &p)
{
    if (!p.haveHeader)
        return std::nullopt;
    if (hasWriteData(p.cmd.type)) {
        if (p.chunksSeen != downFramesPerLine)
            return std::nullopt;
        if (p.cmd.type == CmdType::partialWrite && !p.haveEnables)
            return std::nullopt;
    }
    MemCommand done = p.cmd;
    p = Pending{};
    return done;
}

std::optional<MemCommand>
CommandAssembler::feed(const DownFrame &frame)
{
    switch (frame.type) {
      case FrameType::command: {
        Pending &p = pending_[frame.tag];
        if (p.haveHeader)
            panic("tag %u reused before completion", frame.tag);
        p.active = true;
        p.haveHeader = true;
        p.cmd.type = frame.cmdType;
        p.cmd.addr = frame.addr;
        p.cmd.tag = frame.tag;
        p.cmd.traceId = frame.traceId;
        return finishIfComplete(p);
      }
      case FrameType::writeData: {
        Pending &p = pending_[frame.tag];
        p.active = true;
        if (frame.subIndex == enableMapSubIndex) {
            for (std::size_t byte = 0; byte < downDataChunk; ++byte)
                for (int bit = 0; bit < 8; ++bit)
                    p.cmd.enables[byte * 8 + bit] =
                        (frame.data[byte] >> bit) & 1;
            p.haveEnables = true;
        } else {
            ct_assert(frame.subIndex < downFramesPerLine);
            std::memcpy(p.cmd.data.data()
                            + frame.subIndex * downDataChunk,
                        frame.data.data(), downDataChunk);
            ++p.chunksSeen;
        }
        return finishIfComplete(p);
      }
      default:
        return std::nullopt;
    }
}

bool
CommandAssembler::idle() const
{
    for (const Pending &p : pending_)
        if (p.active)
            return false;
    return true;
}

void
CommandAssembler::reset()
{
    for (Pending &p : pending_)
        p = Pending{};
}

Responses
ResponseAssembler::feed(const UpFrame &frame)
{
    Responses out;
    switch (frame.type) {
      case FrameType::readData: {
        Pending &p = pending_[frame.tag];
        p.active = true;
        p.poisoned |= frame.poisoned;
        ct_assert(frame.subIndex < upFramesPerLine);
        std::memcpy(p.data.data() + frame.subIndex * upDataChunk,
                    frame.data.data(), upDataChunk);
        if (++p.chunksSeen == upFramesPerLine) {
            MemResponse &r = out.emplace_back();
            r.type = RespType::readData;
            r.tag = frame.tag;
            r.data = p.data;
            r.poisoned = p.poisoned;
            r.traceId = frame.traceId;
            p = Pending{};
        }
        break;
      }
      case FrameType::done:
        ct_assert(frame.doneCount <= 4);
        for (unsigned i = 0; i < frame.doneCount; ++i) {
            MemResponse &r = out.emplace_back();
            r.type = RespType::done;
            r.tag = frame.doneTags[i];
            r.traceId = frame.traceId;
        }
        break;
      case FrameType::swapResult: {
        MemResponse &r = out.emplace_back();
        r.type = RespType::swapOld;
        r.tag = frame.tag;
        r.swapSucceeded = frame.swapSucceeded;
        r.traceId = frame.traceId;
        std::memcpy(r.data.data(), frame.data.data(), 8);
        break;
      }
      default:
        break;
    }
    return out;
}

void
ResponseAssembler::reset()
{
    for (Pending &p : pending_)
        p = Pending{};
}

} // namespace contutto::dmi
