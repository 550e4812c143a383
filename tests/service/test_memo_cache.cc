/**
 * @file
 * Memo cache: LRU bounds and counters, recency refresh on both hit
 * and re-insert, and the persistence round-trip the drain/restart
 * cycle depends on, including a persisted index that was truncated
 * or had a bit flipped.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "service/memo_cache.hh"
#include "sim/checkpoint.hh"

using namespace contutto::service;

namespace
{

class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

TEST(MemoCache, HitMissAndCounters)
{
    MemoCache m(8);
    EXPECT_EQ(m.lookup(1, 1), "");
    EXPECT_EQ(m.misses(), 1u);
    m.insert(1, 1, "payload-a");
    EXPECT_EQ(m.lookup(1, 1), "payload-a");
    EXPECT_EQ(m.hits(), 1u);
    // Same config, different seed: a distinct key.
    EXPECT_EQ(m.lookup(1, 2), "");
    EXPECT_EQ(m.size(), 1u);
}

TEST(MemoCache, LruEvictsTheColdest)
{
    MemoCache m(3);
    m.insert(1, 1, "a");
    m.insert(2, 1, "b");
    m.insert(3, 1, "c");
    // Touch 'a' so 'b' is now the coldest.
    EXPECT_EQ(m.lookup(1, 1), "a");
    m.insert(4, 1, "d");
    EXPECT_EQ(m.evictions(), 1u);
    EXPECT_EQ(m.lookup(2, 1), "");  // evicted
    EXPECT_EQ(m.lookup(1, 1), "a"); // survived via the touch
    EXPECT_EQ(m.lookup(3, 1), "c");
    EXPECT_EQ(m.lookup(4, 1), "d");
    EXPECT_EQ(m.size(), 3u);
}

TEST(MemoCache, ZeroCapacityDisables)
{
    MemoCache m(0);
    m.insert(1, 1, "a");
    EXPECT_EQ(m.lookup(1, 1), "");
    EXPECT_EQ(m.size(), 0u);
}

TEST(MemoCache, SaveLoadRoundTrip)
{
    TempPath p("memo_roundtrip.ckpt");
    {
        MemoCache m(16);
        m.insert(0xaaa, 1, "alpha");
        m.insert(0xbbb, 2, "beta");
        m.insert(0xaaa, 9, "gamma");
        m.save(p.str());
    }
    MemoCache back(16);
    back.load(p.str());
    EXPECT_EQ(back.size(), 3u);
    EXPECT_EQ(back.lookup(0xaaa, 1), "alpha");
    EXPECT_EQ(back.lookup(0xbbb, 2), "beta");
    EXPECT_EQ(back.lookup(0xaaa, 9), "gamma");
}

TEST(MemoCache, LoadIntoSmallerCacheKeepsTheHottest)
{
    TempPath p("memo_trim.ckpt");
    {
        MemoCache m(4);
        m.insert(1, 0, "one");
        m.insert(2, 0, "two");
        m.insert(3, 0, "three");
        m.insert(4, 0, "four");
        // Heat up "one": hottest at save time.
        EXPECT_EQ(m.lookup(1, 0), "one");
        m.save(p.str());
    }
    MemoCache back(2);
    back.load(p.str());
    EXPECT_EQ(back.size(), 2u);
    // Save order is coldest->hottest, so the survivors are the two
    // hottest: "four" and the re-touched "one".
    EXPECT_EQ(back.lookup(4, 0), "four");
    EXPECT_EQ(back.lookup(1, 0), "one");
    EXPECT_EQ(back.lookup(2, 0), "");
    EXPECT_EQ(back.lookup(3, 0), "");
}

TEST(MemoCache, CorruptIndexThrows)
{
    TempPath p("memo_corrupt.ckpt");
    {
        MemoCache m(4);
        m.insert(1, 1, "x");
        m.save(p.str());
    }
    // Flip a payload byte; the checkpoint checksum must object.
    {
        std::FILE *f = std::fopen(p.str().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 40, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, 40, SEEK_SET);
        std::fputc(c ^ 0x5a, f);
        std::fclose(f);
    }
    MemoCache back(4);
    EXPECT_THROW(back.load(p.str()), contutto::ckpt::Error);
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

TEST(MemoCache, EveryTruncationAndBitFlipIsATypedError)
{
    TempPath p("memo_fuzz.ckpt");
    {
        MemoCache m(8);
        m.insert(0x1111, 1, "alpha");
        m.insert(0x2222, 2, "{\"runtimeTicks\":12345}");
        m.insert(0x1111, 3, "gamma");
        m.save(p.str());
    }
    const std::string intact = readAll(p.str());
    ASSERT_GT(intact.size(), 0u);

    // A failed load must neither add entries nor drop the ones the
    // cache already held.
    MemoCache target(8);
    target.insert(0x9999, 9, "kept");
    auto expectRejected = [&](const std::string &bytes,
                              const std::string &what) {
        writeAll(p.str(), bytes);
        EXPECT_THROW(target.load(p.str()), contutto::ckpt::Error)
            << what;
        EXPECT_EQ(target.size(), 1u) << what;
    };
    for (std::size_t len = 0; len < intact.size(); ++len)
        expectRejected(intact.substr(0, len),
                       "truncated to " + std::to_string(len));
    for (std::size_t i = 0; i < intact.size(); ++i)
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = intact;
            bytes[i] = char(bytes[i] ^ (1 << bit));
            expectRejected(bytes, "byte " + std::to_string(i)
                                      + " bit " + std::to_string(bit));
        }
    EXPECT_EQ(target.lookup(0x9999, 9), "kept");

    writeAll(p.str(), intact);
    MemoCache back(8);
    back.load(p.str());
    EXPECT_EQ(back.size(), 3u);
    EXPECT_EQ(back.lookup(0x1111, 1), "alpha");
    EXPECT_EQ(back.lookup(0x2222, 2), "{\"runtimeTicks\":12345}");
    EXPECT_EQ(back.lookup(0x1111, 3), "gamma");
}

} // namespace
