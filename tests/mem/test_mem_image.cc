/** @file Functional memory image tests. */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "mem/mem_image.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::mem;

namespace
{

TEST(MemImage, ReadsZeroWhenUntouched)
{
    MemImage m(1 * MiB);
    std::uint8_t buf[16];
    m.read(0x1234, 16, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(MemImage, WriteReadRoundTrip)
{
    MemImage m(1 * MiB);
    std::uint8_t in[64], out[64];
    for (int i = 0; i < 64; ++i)
        in[i] = std::uint8_t(i * 3);
    m.write(0x8000, 64, in);
    m.read(0x8000, 64, out);
    EXPECT_EQ(0, std::memcmp(in, out, 64));
}

TEST(MemImage, CrossPageAccess)
{
    MemImage m(1 * MiB);
    std::uint8_t in[256], out[256];
    for (int i = 0; i < 256; ++i)
        in[i] = std::uint8_t(255 - i);
    Addr addr = MemImage::pageSize - 100; // straddles a boundary
    m.write(addr, 256, in);
    m.read(addr, 256, out);
    EXPECT_EQ(0, std::memcmp(in, out, 256));
    EXPECT_EQ(m.pagesTouched(), 2u);
}

TEST(MemImage, WarmWriteOfZerosLeavesUntouchedPagesAlone)
{
    MemImage m(1 * MiB);
    std::uint8_t zeros[256] = {};
    std::uint8_t out[256];
    // Across a page boundary, both pages untouched: nothing to do.
    Addr addr = MemImage::pageSize - 100;
    m.warmWrite(addr, 256, zeros);
    EXPECT_EQ(m.pagesTouched(), 0u);

    // One page under the range holds data: the store applies, and
    // the contents are what write() leaves.
    std::uint8_t in[8];
    for (int i = 0; i < 8; ++i)
        in[i] = std::uint8_t(i + 1);
    m.write(MemImage::pageSize + 8, 8, in);
    m.warmWrite(addr, 256, zeros);
    m.read(addr, 256, out);
    EXPECT_EQ(0, std::memcmp(zeros, out, 256));
    EXPECT_EQ(m.pagesTouched(), 2u);
    EXPECT_EQ(m.verify(0, 2 * MemImage::pageSize).corrected, 0u);

    // Nonzero data always materializes its page.
    m.warmWrite(8 * MemImage::pageSize, 8, in);
    m.read(8 * MemImage::pageSize, 8, out);
    EXPECT_EQ(0, std::memcmp(in, out, 8));
    EXPECT_EQ(m.pagesTouched(), 3u);
}

TEST(MemImage, Typed64And32)
{
    MemImage m(1 * MiB);
    m.write64(0x100, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(0x100), 0x1122334455667788ull);
    m.write32(0x200, 0xDEADBEEF);
    EXPECT_EQ(m.read32(0x200), 0xDEADBEEFu);
    // Little-endian layout.
    std::uint8_t b;
    m.read(0x100, 1, &b);
    EXPECT_EQ(b, 0x88);
}

TEST(MemImage, MaskedWriteMergesBytes)
{
    MemImage m(1 * MiB);
    dmi::CacheLine base{};
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = 0x11;
    m.write(0, base.size(), base.data());

    dmi::CacheLine update{};
    for (std::size_t i = 0; i < update.size(); ++i)
        update[i] = 0xEE;
    dmi::ByteEnable en;
    en.set(0);
    en.set(64);
    en.set(127);
    m.writeMasked(0, update, en);

    std::uint8_t out[128];
    m.read(0, 128, out);
    EXPECT_EQ(out[0], 0xEE);
    EXPECT_EQ(out[1], 0x11);
    EXPECT_EQ(out[64], 0xEE);
    EXPECT_EQ(out[126], 0x11);
    EXPECT_EQ(out[127], 0xEE);
}

TEST(MemImage, ClearForgetsEverything)
{
    MemImage m(1 * MiB);
    m.write64(0x300, 42);
    m.clear();
    EXPECT_EQ(m.read64(0x300), 0u);
    EXPECT_EQ(m.pagesTouched(), 0u);
}

TEST(MemImage, CopyFromDuplicatesContents)
{
    MemImage a(1 * MiB), b(1 * MiB);
    a.write64(0x400, 0xAAAA);
    a.write64(0x80000, 0xBBBB);
    b.copyFrom(a);
    EXPECT_EQ(b.read64(0x400), 0xAAAAu);
    EXPECT_EQ(b.read64(0x80000), 0xBBBBu);
    // Deep copy: later writes to a don't leak into b.
    a.write64(0x400, 1);
    EXPECT_EQ(b.read64(0x400), 0xAAAAu);
}

TEST(MemImageDeath, OutOfBoundsPanics)
{
    MemImage m(4096);
    std::uint8_t b = 0;
    EXPECT_DEATH(m.write(4096, 1, &b), "capacity");
    EXPECT_DEATH(m.read(4090, 8, &b), "capacity");
}

/** A MemImage checkpoint section holding the given pages, each
 *  filled with its page number's low byte and a matching ECC
 *  sidecar. */
ckpt::Section
imageSection(std::uint64_t capacity, std::vector<std::uint64_t> pagenos)
{
    ckpt::Section s("image");
    s.putU64(capacity);
    s.putU64(0); // corrected
    s.putU64(0); // uncorrectable
    s.putU64(pagenos.size());
    for (std::uint64_t pageno : pagenos) {
        MemImage donor(MemImage::pageSize);
        std::vector<std::uint8_t> data(MemImage::pageSize,
                                       std::uint8_t(pageno));
        donor.write(0, data.size(), data.data());
        ckpt::Section page("page");
        donor.checkpointSave(page);
        // The page's data and check bytes follow capacity, the two
        // counters, the count, its page number and the blob length.
        const std::vector<std::uint8_t> &saved = page.bytes();
        s.putU64(pageno);
        s.putBytes(saved.data() + 48, saved.size() - 48);
    }
    return s;
}

TEST(MemImage, RestoresAHandBuiltSection)
{
    MemImage m(4 * MemImage::pageSize);
    m.write64(0, 7); // replaced by the restore
    auto in = imageSection(4 * MemImage::pageSize, {3, 1});
    m.checkpointRestore(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(m.pagesTouched(), 2u);
    EXPECT_EQ(m.read64(0), 0u);
    EXPECT_EQ(m.read32(MemImage::pageSize), 0x01010101u);
    EXPECT_EQ(m.read32(3 * MemImage::pageSize + 100), 0x03030303u);
    EXPECT_EQ(m.verify(0, 4 * MemImage::pageSize).corrected, 0u);

    // The save is canonical: page-number order.
    ckpt::Section out("image");
    m.checkpointSave(out);
    EXPECT_EQ(out.bytes(),
              imageSection(4 * MemImage::pageSize, {1, 3}).bytes());
}

TEST(MemImage, RestoreRefusesAPagePastCapacity)
{
    MemImage m(4 * MemImage::pageSize);
    auto in = imageSection(4 * MemImage::pageSize, {1, 4});
    EXPECT_THROW(m.checkpointRestore(in), ckpt::Error);
}

TEST(MemImage, RestoreRefusesAPageGivenTwice)
{
    MemImage m(4 * MemImage::pageSize);
    auto in = imageSection(4 * MemImage::pageSize, {2, 2});
    EXPECT_THROW(m.checkpointRestore(in), ckpt::Error);
}

// Property: random op sequence matches a std::map reference model.
class MemImageFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MemImageFuzz, MatchesReferenceModel)
{
    MemImage m(256 * KiB);
    std::map<Addr, std::uint8_t> ref;
    Rng r(GetParam());
    for (int op = 0; op < 2000; ++op) {
        Addr addr = r.below(256 * KiB - 64);
        std::size_t len = 1 + r.below(64);
        if (r.chance(0.5)) {
            std::uint8_t buf[64];
            for (std::size_t i = 0; i < len; ++i) {
                buf[i] = std::uint8_t(r.next());
                ref[addr + i] = buf[i];
            }
            m.write(addr, len, buf);
        } else {
            std::uint8_t buf[64];
            m.read(addr, len, buf);
            for (std::size_t i = 0; i < len; ++i) {
                auto it = ref.find(addr + i);
                std::uint8_t expect =
                    it == ref.end() ? 0 : it->second;
                ASSERT_EQ(buf[i], expect)
                    << "op " << op << " addr " << (addr + i);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemImageFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
