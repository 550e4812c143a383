/** @file Functional memory image tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "mem/mem_image.hh"
#include "ras/ecc.hh"
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

/** Little-endian 64-bit word at @p p, as MemImage stores it. */
std::uint64_t
loadWord(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** One fault built into a hand-made image section. */
struct Flip
{
    Addr addr;
    unsigned bit;
    bool check; ///< A check bit of addr's word, not a data bit.
};

/** A MemImage checkpoint section holding the given pages, each
 *  filled with its page number's low byte and followed by each
 *  word's check byte, encoded before @p flips are applied: a data
 *  flip leaves its word's check byte stale. */
ckpt::Section
imageSection(std::uint64_t capacity, std::vector<std::uint64_t> pagenos,
             const std::vector<Flip> &flips = {})
{
    constexpr std::size_t ps = MemImage::pageSize;
    ckpt::Section s("image");
    s.putU64(capacity);
    s.putU64(0); // corrected
    s.putU64(0); // uncorrectable
    s.putU64(pagenos.size());
    for (std::uint64_t pageno : pagenos) {
        std::vector<std::uint8_t> blob(ps + ps / 8, std::uint8_t(pageno));
        for (std::size_t w = 0; w < ps / 8; ++w)
            blob[ps + w] = ras::eccEncode(loadWord(&blob[8 * w]));
        for (const Flip &f : flips) {
            if (f.addr / ps != pageno)
                continue;
            const std::size_t word = f.addr % ps / 8;
            if (f.check)
                blob[ps + word] ^= std::uint8_t(1u << f.bit);
            else
                blob[8 * word + f.bit / 8] ^= std::uint8_t(1u << f.bit % 8);
        }
        s.putU64(pageno);
        s.putBytes(blob.data(), blob.size());
    }
    return s;
}

TEST(MemImage, RestoresAHandBuiltSection)
{
    constexpr std::uint64_t cap = 4 * MemImage::pageSize;
    MemImage m(cap);
    m.write64(0, 7); // replaced by the restore
    auto in = imageSection(cap, {3, 1});
    m.checkpointRestore(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(m.pagesTouched(), 2u);
    EXPECT_EQ(m.read64(0), 0u);
    EXPECT_EQ(m.read32(MemImage::pageSize), 0x01010101u);
    EXPECT_EQ(m.read32(3 * MemImage::pageSize + 100), 0x03030303u);
    EXPECT_EQ(m.verify(0, cap).corrected, 0u);

    // The save is canonical: page-number order.
    ckpt::Section out("image");
    m.checkpointSave(out);
    EXPECT_EQ(out.bytes(), imageSection(cap, {1, 3}).bytes());

    // Injected faults save as the stale check bytes they leave (a
    // data flip, a check flip, and both in one word), and a restore
    // keeps every one of them.
    const std::vector<Flip> flips = {
        {MemImage::pageSize + 24, 37, false},
        {3 * MemImage::pageSize + 808, 2, true},
        {3 * MemImage::pageSize + 4000, 63, false},
        {3 * MemImage::pageSize + 4000, 7, true},
    };
    MemImage faulty(cap);
    faulty.checkpointRestore(out);
    for (const Flip &f : flips) {
        if (f.check)
            faulty.injectCheckBitFlip(f.addr, f.bit);
        else
            faulty.injectBitFlip(f.addr, f.bit);
    }
    ckpt::Section saved("image");
    faulty.checkpointSave(saved);
    EXPECT_EQ(saved.bytes(), imageSection(cap, {1, 3}, flips).bytes());

    MemImage restored(cap);
    restored.checkpointRestore(saved);
    const EccScan want = faulty.verify(0, cap);
    const EccScan got = restored.verify(0, cap);
    EXPECT_EQ(want.corrected, 2u);
    EXPECT_EQ(want.uncorrectable, 1u);
    EXPECT_EQ(got.corrected, want.corrected);
    EXPECT_EQ(got.uncorrectable, want.uncorrectable);
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

/**
 * Reference for MemImage with its check storage written out: flat
 * data, one stored check byte per 8 B word (re-encoded by every
 * write over the word, left alone by fault injection), and the pages
 * that have materialized.
 */
struct RefImage
{
    explicit RefImage(std::uint64_t capacity)
        : data(capacity, 0), check(capacity / 8, ras::eccEncode(0))
    {}

    std::vector<std::uint8_t> data;
    std::vector<std::uint8_t> check;
    std::set<std::uint64_t> pages;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;

    std::uint64_t word(Addr w) const { return loadWord(&data[w]); }

    void
    touch(Addr addr, std::size_t len)
    {
        for (Addr p = addr / MemImage::pageSize;
             p <= (addr + len - 1) / MemImage::pageSize; ++p)
            pages.insert(p);
    }

    void
    write(Addr addr, std::size_t len, const std::uint8_t *in)
    {
        touch(addr, len);
        std::memcpy(&data[addr], in, len);
        for (Addr w = addr & ~Addr(7); w < addr + len; w += 8)
            check[w / 8] = ras::eccEncode(word(w));
    }

    void
    warmWrite(Addr addr, std::size_t len, const std::uint8_t *in)
    {
        bool noop = std::all_of(in, in + len,
                                [](std::uint8_t b) { return b == 0; });
        for (Addr p = addr / MemImage::pageSize;
             noop && p <= (addr + len - 1) / MemImage::pageSize; ++p)
            noop = !pages.count(p);
        if (!noop)
            write(addr, len, in);
    }

    void
    injectBitFlip(Addr addr, unsigned bit)
    {
        const Addr w = addr & ~Addr(7);
        touch(w, 8);
        data[w + bit / 8] ^= std::uint8_t(1u << bit % 8);
    }

    void
    injectCheckBitFlip(Addr addr, unsigned bit)
    {
        const Addr w = addr & ~Addr(7);
        touch(w, 8);
        check[w / 8] ^= std::uint8_t(1u << bit);
    }

    EccScan
    verify(Addr addr, std::size_t len)
    {
        EccScan scan;
        for (Addr w = addr & ~Addr(7); w < addr + len; w += 8) {
            const ras::EccDecode dec = ras::eccDecode(word(w), check[w / 8]);
            if (dec.status == ras::EccStatus::corrected) {
                for (int i = 0; i < 8; ++i)
                    data[w + i] = std::uint8_t(dec.data >> (8 * i));
                check[w / 8] = dec.check;
                ++scan.corrected;
                ++corrected;
            } else if (dec.status == ras::EccStatus::uncorrectable) {
                ++scan.uncorrectable;
                ++uncorrectable;
            }
        }
        return scan;
    }

    void
    clear()
    {
        std::fill(data.begin(), data.end(), 0);
        std::fill(check.begin(), check.end(), ras::eccEncode(0));
        pages.clear();
    }

    /** The checkpoint format-3 section of this image. */
    ckpt::Section
    save() const
    {
        constexpr std::size_t ps = MemImage::pageSize;
        ckpt::Section s("image");
        s.putU64(data.size());
        s.putU64(corrected);
        s.putU64(uncorrectable);
        s.putU64(pages.size());
        for (std::uint64_t p : pages) {
            std::vector<std::uint8_t> blob(&data[p * ps],
                                           &data[p * ps] + ps);
            blob.insert(blob.end(), &check[p * ps / 8],
                        &check[p * ps / 8] + ps / 8);
            s.putU64(p);
            s.putBytes(blob.data(), blob.size());
        }
        return s;
    }
};

// Property: a random op sequence, fault injection, scrubbing,
// copies and checkpoints included, matches the reference model.
class MemImageFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MemImageFuzz, MatchesReferenceModel)
{
    constexpr std::uint64_t cap = 64 * KiB;
    constexpr std::size_t maxLen = dmi::cacheLineSize;
    auto m = std::make_unique<MemImage>(cap);
    RefImage ref(cap);
    Rng r(GetParam());
    // Half the ops land in the 4 KiB across the page 3/4 boundary, so
    // faults meet the writes and scans that overlap them.
    auto pick = [&r] {
        return r.chance(0.5)
            ? 3 * MemImage::pageSize - 2 * KiB + r.below(4 * KiB)
            : r.below(cap - maxLen);
    };
    auto expectSame = [&](const char *what, int op) {
        std::vector<std::uint8_t> got(cap);
        m->read(0, cap, got.data());
        ASSERT_EQ(got, ref.data) << what << " at op " << op;
        ASSERT_EQ(m->correctedErrors(), ref.corrected)
            << what << " at op " << op;
        ASSERT_EQ(m->uncorrectableErrors(), ref.uncorrectable)
            << what << " at op " << op;
        ckpt::Section saved("image");
        m->checkpointSave(saved);
        ASSERT_EQ(saved.bytes(), ref.save().bytes())
            << what << " at op " << op;
    };
    std::uint8_t buf[maxLen];
    for (int op = 0; op < 3000; ++op) {
        const Addr addr = pick();
        const std::size_t len = 1 + r.below(64);
        // Out of 40: 10 writes, 8 reads, 2 warm writes, 2 masked
        // writes, 5 data flips, 4 check flips, 5 scrubs, 1 copy, 2
        // checkpoints and, one time in five, a clear.
        const std::uint64_t roll = r.below(40);
        if (roll < 10) {
            for (std::size_t i = 0; i < len; ++i)
                buf[i] = std::uint8_t(r.next());
            m->write(addr, len, buf);
            ref.write(addr, len, buf);
        } else if (roll < 18) {
            m->read(addr, len, buf);
            for (std::size_t i = 0; i < len; ++i)
                ASSERT_EQ(buf[i], ref.data[addr + i])
                    << "op " << op << " addr " << (addr + i);
        } else if (roll < 20) {
            const bool zero = r.chance(0.5);
            for (std::size_t i = 0; i < len; ++i)
                buf[i] = zero ? 0 : std::uint8_t(r.next());
            m->warmWrite(addr, len, buf);
            ref.warmWrite(addr, len, buf);
        } else if (roll < 22) {
            dmi::CacheLine line;
            dmi::ByteEnable en;
            for (std::size_t i = 0; i < line.size(); ++i) {
                line[i] = std::uint8_t(r.next());
                en[i] = r.chance(0.3);
                if (en[i])
                    ref.write(addr + i, 1, &line[i]);
            }
            m->writeMasked(addr, line, en);
        } else if (roll < 27) {
            const unsigned bit = unsigned(r.below(64));
            m->injectBitFlip(addr, bit);
            ref.injectBitFlip(addr, bit);
        } else if (roll < 31) {
            const unsigned bit = unsigned(r.below(8));
            m->injectCheckBitFlip(addr, bit);
            ref.injectCheckBitFlip(addr, bit);
        } else if (roll < 36) {
            const std::size_t span = 1 + r.below(2 * KiB);
            const Addr base = std::min<Addr>(addr, cap - span);
            const EccScan got = m->verify(base, span);
            const EccScan want = ref.verify(base, span);
            ASSERT_EQ(got.corrected, want.corrected) << "op " << op;
            ASSERT_EQ(got.uncorrectable, want.uncorrectable)
                << "op " << op;
            ASSERT_EQ(m->correctedErrors(), ref.corrected);
            ASSERT_EQ(m->uncorrectableErrors(), ref.uncorrectable);
        } else if (roll < 37) {
            // The copy starts its own lifetime counters.
            auto copy = std::make_unique<MemImage>(cap);
            copy->copyFrom(*m);
            m = std::move(copy);
            ref.corrected = ref.uncorrectable = 0;
            ASSERT_NO_FATAL_FAILURE(expectSame("copyFrom", op));
        } else if (roll < 39) {
            ckpt::Section saved("image");
            m->checkpointSave(saved);
            ASSERT_EQ(saved.bytes(), ref.save().bytes()) << "op " << op;
            m = std::make_unique<MemImage>(cap);
            m->checkpointRestore(saved);
            ASSERT_TRUE(saved.atEnd());
        } else if (r.chance(0.2)) {
            m->clear();
            ref.clear();
        }
    }
    ASSERT_NO_FATAL_FAILURE(expectSame("end", 3000));
    const EccScan got = m->verify(0, cap);
    const EccScan want = ref.verify(0, cap);
    EXPECT_EQ(got.corrected, want.corrected);
    EXPECT_EQ(got.uncorrectable, want.uncorrectable);
    ASSERT_NO_FATAL_FAILURE(expectSame("final verify", 3000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemImageFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
