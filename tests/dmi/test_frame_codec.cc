/** @file Frame serialization and command/response codec tests. */

#include <gtest/gtest.h>

#include <algorithm>

#include "dmi/codec.hh"
#include "dmi/frame.hh"
#include "sim/heap_count.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::dmi;

namespace
{

CacheLine
randomLine(Rng &r)
{
    CacheLine line;
    for (auto &b : line)
        b = std::uint8_t(r.next());
    return line;
}

TEST(Frame, DownCommandRoundTrip)
{
    DownFrame f;
    f.type = FrameType::command;
    f.seq = 42;
    f.seqValid = true;
    f.ackValid = true;
    f.ackSeq = 17;
    f.cmdType = CmdType::partialWrite;
    f.tag = 9;
    f.addr = 0x123456780ull & ~Addr(127);

    WireFrame w = f.serialize();
    EXPECT_EQ(w.len, downFrameBytes);
    DownFrame g;
    ASSERT_TRUE(DownFrame::deserialize(w, g));
    EXPECT_EQ(g.type, f.type);
    EXPECT_EQ(g.seq, f.seq);
    EXPECT_TRUE(g.seqValid);
    EXPECT_TRUE(g.ackValid);
    EXPECT_EQ(g.ackSeq, f.ackSeq);
    EXPECT_EQ(g.cmdType, f.cmdType);
    EXPECT_EQ(g.tag, f.tag);
    EXPECT_EQ(g.addr, f.addr);
}

TEST(Frame, DownWriteDataRoundTrip)
{
    Rng r(1);
    DownFrame f;
    f.type = FrameType::writeData;
    f.tag = 31;
    f.subIndex = 5;
    for (auto &b : f.data)
        b = std::uint8_t(r.next());
    WireFrame w = f.serialize();
    DownFrame g;
    ASSERT_TRUE(DownFrame::deserialize(w, g));
    EXPECT_EQ(g.data, f.data);
    EXPECT_EQ(g.subIndex, 5);
}

TEST(Frame, UpReadDataRoundTrip)
{
    Rng r(2);
    UpFrame f;
    f.type = FrameType::readData;
    f.tag = 7;
    f.subIndex = 3;
    for (auto &b : f.data)
        b = std::uint8_t(r.next());
    WireFrame w = f.serialize();
    EXPECT_EQ(w.len, upFrameBytes);
    UpFrame g;
    ASSERT_TRUE(UpFrame::deserialize(w, g));
    EXPECT_EQ(g.data, f.data);
    EXPECT_EQ(g.tag, 7);
}

TEST(Frame, UpDoneCarriesMultipleTags)
{
    UpFrame f;
    f.type = FrameType::done;
    f.doneCount = 3;
    f.doneTags = {4, 8, 15, 0};
    WireFrame w = f.serialize();
    UpFrame g;
    ASSERT_TRUE(UpFrame::deserialize(w, g));
    EXPECT_EQ(g.doneCount, 3);
    EXPECT_EQ(g.doneTags[0], 4);
    EXPECT_EQ(g.doneTags[2], 15);
}

TEST(Frame, CorruptionFailsCrc)
{
    DownFrame f;
    f.type = FrameType::command;
    f.cmdType = CmdType::read128;
    f.addr = 0x1000;
    WireFrame w = f.serialize();
    w.bytes[6] ^= 0x40;
    DownFrame g;
    EXPECT_FALSE(DownFrame::deserialize(w, g));
}

TEST(Codec, ReadEncodesToSingleFrame)
{
    MemCommand cmd;
    cmd.type = CmdType::read128;
    cmd.addr = 0x2000;
    cmd.tag = 3;
    auto frames = encodeCommand(cmd);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, FrameType::command);
}

TEST(Codec, WriteEncodesHeaderPlusEightChunks)
{
    Rng r(3);
    MemCommand cmd;
    cmd.type = CmdType::write128;
    cmd.addr = 0x4000;
    cmd.tag = 5;
    cmd.data = randomLine(r);
    auto frames = encodeCommand(cmd);
    ASSERT_EQ(frames.size(), 1u + downFramesPerLine);
}

TEST(Codec, PartialWriteAddsEnableMapFrame)
{
    Rng r(4);
    MemCommand cmd;
    cmd.type = CmdType::partialWrite;
    cmd.addr = 0x6000;
    cmd.tag = 6;
    cmd.data = randomLine(r);
    cmd.enables.set(3);
    cmd.enables.set(77);
    auto frames = encodeCommand(cmd);
    ASSERT_EQ(frames.size(), 2u + downFramesPerLine);
    EXPECT_EQ(frames[1].subIndex, enableMapSubIndex);
}

TEST(Codec, WriteCommandReassembles)
{
    Rng r(5);
    MemCommand cmd;
    cmd.type = CmdType::write128;
    cmd.addr = 0x8000;
    cmd.tag = 11;
    cmd.data = randomLine(r);

    CommandAssembler asmb;
    auto frames = encodeCommand(cmd);
    std::optional<MemCommand> out;
    for (const auto &f : frames) {
        EXPECT_FALSE(out.has_value());
        out = asmb.feed(f);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, CmdType::write128);
    EXPECT_EQ(out->addr, cmd.addr);
    EXPECT_EQ(out->tag, cmd.tag);
    EXPECT_EQ(out->data, cmd.data);
    EXPECT_TRUE(asmb.idle());
}

TEST(Codec, PartialWriteReassemblesEnables)
{
    Rng r(6);
    MemCommand cmd;
    cmd.type = CmdType::partialWrite;
    cmd.addr = 0xA000;
    cmd.tag = 12;
    cmd.data = randomLine(r);
    for (int i = 0; i < 128; i += 3)
        cmd.enables.set(i);

    CommandAssembler asmb;
    std::optional<MemCommand> out;
    for (const auto &f : encodeCommand(cmd))
        out = asmb.feed(f);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->enables, cmd.enables);
}

TEST(Codec, InterleavedWritesReassembleIndependently)
{
    // Paper §3.3(iii): "write data for multiple downstream commands
    // can be interleaved".
    Rng r(7);
    MemCommand a, b;
    a.type = b.type = CmdType::write128;
    a.addr = 0x1000;
    b.addr = 0x2000;
    a.tag = 1;
    b.tag = 2;
    a.data = randomLine(r);
    b.data = randomLine(r);

    auto fa = encodeCommand(a);
    auto fb = encodeCommand(b);
    CommandAssembler asmb;
    std::vector<MemCommand> done;
    // Interleave frame-by-frame.
    for (std::size_t i = 0; i < fa.size(); ++i) {
        if (auto c = asmb.feed(fa[i]))
            done.push_back(*c);
        if (auto c = asmb.feed(fb[i]))
            done.push_back(*c);
    }
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].data, a.data);
    EXPECT_EQ(done[1].data, b.data);
}

TEST(Codec, ReadResponseReassembles)
{
    Rng r(8);
    MemResponse resp;
    resp.type = RespType::readData;
    resp.tag = 19;
    resp.data = randomLine(r);

    auto frames = encodeResponse(resp);
    ASSERT_EQ(frames.size(), upFramesPerLine);
    ResponseAssembler asmb;
    std::vector<MemResponse> out;
    for (const auto &f : frames)
        for (auto &m : asmb.feed(f))
            out.push_back(m);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].data, resp.data);
    EXPECT_EQ(out[0].tag, 19);
}

TEST(Codec, DoneFanoutProducesOneResponsePerTag)
{
    UpFrame f;
    f.type = FrameType::done;
    f.doneCount = 4;
    f.doneTags = {1, 2, 3, 4};
    ResponseAssembler asmb;
    auto out = asmb.feed(f);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i].type, RespType::done);
        EXPECT_EQ(out[i].tag, i + 1);
    }
}

// Property sweep: random command streams survive encode->interleave->
// reassemble for all command types.
class CodecFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CodecFuzz, RandomInterleavedStreams)
{
    Rng r(GetParam());
    std::vector<MemCommand> cmds;
    std::vector<std::vector<DownFrame>> encoded;
    for (unsigned tag = 0; tag < numTags; ++tag) {
        MemCommand c;
        switch (r.below(3)) {
          case 0: c.type = CmdType::read128; break;
          case 1: c.type = CmdType::write128; break;
          default: c.type = CmdType::partialWrite; break;
        }
        c.addr = Addr(r.below(1u << 20)) * cacheLineSize;
        c.tag = std::uint8_t(tag);
        c.data = randomLine(r);
        if (c.type == CmdType::partialWrite)
            for (int i = 0; i < 128; ++i)
                if (r.chance(0.5))
                    c.enables.set(i);
        cmds.push_back(c);
        encoded.push_back(encodeCommand(c));
    }

    // Round-robin random interleave.
    CommandAssembler asmb;
    std::vector<MemCommand> out;
    std::vector<std::size_t> pos(encoded.size(), 0);
    std::size_t remaining = 0;
    for (auto &v : encoded)
        remaining += v.size();
    while (remaining > 0) {
        std::size_t k = r.below(encoded.size());
        if (pos[k] >= encoded[k].size())
            continue;
        if (auto c = asmb.feed(encoded[k][pos[k]++]))
            out.push_back(*c);
        --remaining;
    }
    ASSERT_EQ(out.size(), cmds.size());
    std::sort(out.begin(), out.end(),
              [](const MemCommand &x, const MemCommand &y) {
                  return x.tag < y.tag;
              });
    for (unsigned i = 0; i < cmds.size(); ++i) {
        EXPECT_EQ(out[i].addr, cmds[i].addr);
        EXPECT_EQ(out[i].type, cmds[i].type);
        if (hasWriteData(cmds[i].type)) {
            EXPECT_EQ(out[i].data, cmds[i].data);
        }
    }
    EXPECT_TRUE(asmb.idle());
}

// The codec runs for every command and response on the link, so it
// must not touch the heap: encoding reads, writes and partial writes,
// encoding read data, done and swap responses, and assembling a full
// read and a four-tag done frame.
TEST(Codec, EncodesAndAssemblesWithoutTheHeap)
{
    Rng r(10);
    MemCommand read, write, partial;
    read.type = CmdType::read128;
    write.type = CmdType::write128;
    partial.type = CmdType::partialWrite;
    write.data = partial.data = randomLine(r);
    partial.enables.set(5);
    MemResponse data, done, swap;
    data.type = RespType::readData;
    data.data = randomLine(r);
    done.type = RespType::done;
    swap.type = RespType::swapOld;
    UpFrame fourDone;
    fourDone.type = FrameType::done;
    fourDone.doneCount = 4;
    fourDone.doneTags = {1, 2, 3, 4};
    ResponseAssembler asmb;

    const std::uint64_t before = heapAllocations();
    std::size_t frames = 0, responses = 0;
    for (const MemCommand *c : {&read, &write, &partial})
        frames += encodeCommand(*c).size();
    for (const MemResponse *m : {&done, &swap})
        frames += encodeResponse(*m).size();
    for (const UpFrame &f : encodeResponse(data)) {
        ++frames;
        responses += asmb.feed(f).size();
    }
    responses += asmb.feed(fourDone).size();
    const std::uint64_t allocated = heapAllocations() - before;

    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(frames, (1u + 9u + 10u) + (1u + 1u + 4u));
    EXPECT_EQ(responses, 1u + 4u);
    // The counter does see the heap: keeping frames copies them out.
    const std::uint64_t beforeCopy = heapAllocations();
    std::vector<DownFrame> kept = encodeCommand(write);
    EXPECT_EQ(kept.size(), 9u);
    EXPECT_GT(heapAllocations(), beforeCopy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

} // namespace
