/**
 * @file The host contract both memory buffers give: same-line
 * ordering, retry exhaustion and the checkpoint round trip, each run
 * against ConTutto's MBS and against the Centaur baseline.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/system.hh"

using namespace contutto;
using namespace contutto::cpu;
using namespace contutto::dmi;

namespace
{

Power8System::Params
bufferSystem(BufferKind kind)
{
    Power8System::Params p;
    p.buffer = kind;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

bool
bufferQuiescent(Power8System &sys)
{
    return sys.card() ? sys.card()->mbs().quiescent()
                      : sys.centaurBuffer()->quiescent();
}

void
stallNextCompletions(Power8System &sys, unsigned n)
{
    if (sys.card())
        sys.card()->mbs().stallNextCompletions(n);
    else
        sys.centaurBuffer()->stallNextCompletions(n);
}

std::vector<std::uint8_t>
saveBuffer(Power8System &sys)
{
    ckpt::Section out("buffer");
    if (sys.card())
        sys.card()->mbs().checkpointSave(out);
    else
        sys.centaurBuffer()->checkpointSave(out);
    return out.bytes();
}

void
restoreBuffer(Power8System &sys, ckpt::Section &in)
{
    if (sys.card())
        sys.card()->mbs().checkpointRestore(in);
    else
        sys.centaurBuffer()->checkpointRestore(in);
}

class BufferContract : public ::testing::TestWithParam<BufferKind>
{};

TEST_P(BufferContract, SameLineChainDrainsInArrivalOrder)
{
    // W(a), R, W(b), R to one line, back to back: every command
    // parked behind an older one on its line must run once the line
    // frees, oldest first, and the last read must see b.
    Power8System sys(bufferSystem(GetParam()));
    ASSERT_TRUE(sys.train());

    constexpr Addr line = 0x40000;
    CacheLine a, b;
    a.fill(0xA1);
    b.fill(0xB2);
    unsigned done = 0;
    CacheLine first_read{}, last_read{};
    sys.port().write(line, a, [&](const HostOpResult &) { ++done; });
    sys.port().read(line, [&](const HostOpResult &r) {
        ++done;
        first_read = r.data;
    });
    sys.port().write(line, b, [&](const HostOpResult &) { ++done; });
    sys.port().read(line, [&](const HostOpResult &r) {
        ++done;
        last_read = r.data;
    });
    EXPECT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(first_read, a);
    EXPECT_EQ(last_read, b);
    CacheLine media{};
    sys.functionalRead(line, cacheLineSize, media.data());
    EXPECT_EQ(media, b);
    EXPECT_TRUE(bufferQuiescent(sys));
}

TEST_P(BufferContract, ReadsParkedBehindOneWriteAllComplete)
{
    Power8System sys(bufferSystem(GetParam()));
    ASSERT_TRUE(sys.train());

    constexpr Addr line = 0x60000;
    CacheLine w;
    w.fill(0x3C);
    unsigned done = 0;
    sys.port().write(line, w, [&](const HostOpResult &) { ++done; });
    for (int i = 0; i < 2; ++i)
        sys.port().read(line, [&](const HostOpResult &r) {
            ++done;
            EXPECT_EQ(r.data, w);
        });
    EXPECT_TRUE(sys.runUntilIdle());
    EXPECT_EQ(done, 3u);
    EXPECT_TRUE(bufferQuiescent(sys));
}

TEST_P(BufferContract, RetryExhaustionReclaimsTags)
{
    // Every completion of a command lost: the watchdog retries three
    // times with backoff, then reclaims the tag. The host gets a
    // poisoned read and a bare done, never a hang.
    Power8System sys(bufferSystem(GetParam()));
    ASSERT_TRUE(sys.train());
    LogControl::warnings() = false;

    stallNextCompletions(sys, 4);
    bool read_done = false, poisoned = false;
    sys.port().read(0x80000, [&](const HostOpResult &r) {
        read_done = true;
        poisoned = r.poisoned;
    });
    EXPECT_TRUE(sys.runUntilIdle());
    EXPECT_TRUE(read_done);
    EXPECT_TRUE(poisoned);

    stallNextCompletions(sys, 4);
    CacheLine line;
    line.fill(0x77);
    bool write_done = false, flush_done = false;
    sys.port().write(0x80080, line,
                     [&](const HostOpResult &) { write_done = true; });
    sys.port().flush([&](const HostOpResult &) { flush_done = true; });
    EXPECT_TRUE(sys.runUntilIdle());
    LogControl::warnings() = true;
    EXPECT_TRUE(write_done);
    EXPECT_TRUE(flush_done);

    double reclaimed = 0, timeouts = 0;
    if (sys.card()) {
        const auto &s = sys.card()->mbs().mbsStats();
        reclaimed = s.tagsReclaimed.value();
        timeouts = s.cmdTimeouts.value();
    } else {
        const auto &s = sys.centaurBuffer()->centaurStats();
        reclaimed = s.tagsReclaimed.value();
        timeouts = s.cmdTimeouts.value();
    }
    EXPECT_EQ(reclaimed, 2.0);
    EXPECT_EQ(timeouts, 8.0);
    unsigned logged = 0;
    for (const auto &e : sys.channel().errorLog().query(
             firmware::Severity::unrecoverable))
        if (e.message.find("reclaimed after retry exhaustion")
            != std::string::npos)
            ++logged;
    EXPECT_EQ(logged, 2u);
    EXPECT_TRUE(bufferQuiescent(sys));
}

TEST_P(BufferContract, CheckpointRoundTripIsByteIdentical)
{
    Power8System sys(bufferSystem(GetParam()));
    ASSERT_TRUE(sys.train());
    CacheLine line;
    line.fill(0x5A);
    for (unsigned i = 0; i < 24; ++i) {
        Addr addr = Addr(i) * 0x1080;
        if (i % 3 == 2)
            sys.port().read(addr, nullptr);
        else
            sys.port().write(addr, line, nullptr);
    }
    ASSERT_TRUE(sys.runUntilIdle());
    // An unspent stall budget is state the section must carry.
    stallNextCompletions(sys, 3);
    std::vector<std::uint8_t> saved = saveBuffer(sys);

    // The tail, written last: issue-sequence counter, stall budget,
    // tag count, then one zero sequence per (idle) tag.
    constexpr std::size_t tail = 4 * (3 + numTags);
    ASSERT_GE(saved.size(), tail);
    std::uint32_t words[3 + numTags];
    std::memcpy(words, saved.data() + saved.size() - tail, tail);
    EXPECT_GT(words[0], 0u);
    EXPECT_EQ(words[1], 3u);
    EXPECT_EQ(words[2], numTags);
    for (unsigned t = 0; t < numTags; ++t)
        EXPECT_EQ(words[3 + t], 0u) << "tag " << t;

    Power8System fresh(bufferSystem(GetParam()));
    ASSERT_TRUE(fresh.train());
    ckpt::Section in("buffer");
    in.setBytes(saved);
    restoreBuffer(fresh, in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(saveBuffer(fresh), saved);

    // The layout, pinned: the size and FNV-1a of the whole section.
    // Centaur's is dominated by its tag array, one 8 B word per way
    // of the 16 MiB, 8-way eDRAM cache (1 MiB).
    bool mbs = GetParam() == BufferKind::contutto;
    EXPECT_EQ(saved.size(), mbs ? 148u : 1048756u);
    EXPECT_EQ(ckpt::fnv1a(saved.data(), saved.size()),
              mbs ? 1059087963531730518ull
                  : 8274577902756070596ull);
}

INSTANTIATE_TEST_SUITE_P(
    Buffers, BufferContract,
    ::testing::Values(BufferKind::contutto, BufferKind::centaur),
    [](const ::testing::TestParamInfo<BufferKind> &info) {
        return std::string(info.param == BufferKind::contutto
                               ? "contutto"
                               : "centaur");
    });

} // namespace
