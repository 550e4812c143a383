/**
 * @file
 * Checkpoint core tests: section round-trips, file format
 * validation (magic, version, checksums, truncation), stats-tree
 * capture, and EventQueue / Rng state round-trips including the
 * drain/refill protocol and counter freeze.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace contutto;

namespace
{

/** A self-cleaning temp file path. */
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

TEST(CheckpointSection, PrimitivesRoundTrip)
{
    ckpt::Section s("t");
    s.putU8(0xab);
    s.putU32(0xdeadbeef);
    s.putU64(0x0123456789abcdefull);
    s.putF64(3.25);
    s.putStr("hello");
    std::uint8_t blob[3] = {1, 2, 3};
    s.putBytes(blob, sizeof(blob));

    EXPECT_EQ(s.getU8(), 0xab);
    EXPECT_EQ(s.getU32(), 0xdeadbeefu);
    EXPECT_EQ(s.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(s.getF64(), 3.25);
    EXPECT_EQ(s.getStr(), "hello");
    EXPECT_EQ(s.peekBytesLen(), 3u);
    std::uint8_t out[3] = {};
    s.getBytes(out, sizeof(out));
    EXPECT_EQ(out[2], 3);
    EXPECT_TRUE(s.atEnd());
}

TEST(CheckpointSection, ReadPastEndThrows)
{
    ckpt::Section s("t");
    s.putU32(7);
    (void)s.getU32();
    EXPECT_THROW(s.getU32(), ckpt::Error);
}

TEST(CheckpointSection, BlobLengthMismatchThrows)
{
    ckpt::Section s("t");
    std::uint8_t blob[4] = {};
    s.putBytes(blob, sizeof(blob));
    std::uint8_t out[8];
    EXPECT_THROW(s.getBytes(out, sizeof(out)), ckpt::Error);
}

TEST(CheckpointFile, RoundTripThroughDisk)
{
    TempPath p("ckpt_roundtrip.bin");
    {
        ckpt::Checkpoint ck;
        ckpt::Section &a = ck.add("alpha");
        a.putU64(42);
        a.putStr("state");
        ckpt::Section &b = ck.add("beta");
        b.putF64(1.5);
        ck.writeFile(p.str());
    }
    ckpt::Checkpoint ck = ckpt::Checkpoint::readFile(p.str());
    EXPECT_EQ(ck.numSections(), 2u);
    EXPECT_TRUE(ck.has("alpha"));
    EXPECT_FALSE(ck.has("gamma"));
    EXPECT_EQ(ck.section("alpha").getU64(), 42u);
    EXPECT_EQ(ck.section("alpha").getStr(), "state");
    EXPECT_EQ(ck.section("beta").getF64(), 1.5);
    EXPECT_THROW(ck.section("gamma"), ckpt::Error);
}

TEST(CheckpointFile, DuplicateSectionThrows)
{
    ckpt::Checkpoint ck;
    ck.add("x");
    EXPECT_THROW(ck.add("x"), ckpt::Error);
}

TEST(CheckpointFile, MissingFileThrows)
{
    EXPECT_THROW(
        ckpt::Checkpoint::readFile("/nonexistent/nowhere.ckpt"),
        ckpt::Error);
}

TEST(CheckpointFile, CorruptionIsDetected)
{
    ckpt::Checkpoint ck;
    ck.add("payload").putU64(0x1122334455667788ull);
    std::vector<std::uint8_t> raw = ck.serialize();

    // Flip one payload bit: both the section checksum and the file
    // checksum must miss nothing.
    for (std::size_t i = 0; i < raw.size(); ++i) {
        std::vector<std::uint8_t> bad = raw;
        bad[i] ^= 0x01;
        EXPECT_THROW(ckpt::Checkpoint::deserialize(bad), ckpt::Error)
            << "flipped byte " << i << " not detected";
    }
}

TEST(CheckpointFile, TruncationIsDetected)
{
    ckpt::Checkpoint ck;
    ck.add("payload").putU64(99);
    std::vector<std::uint8_t> raw = ck.serialize();
    for (std::size_t keep = 0; keep < raw.size(); ++keep) {
        std::vector<std::uint8_t> bad(raw.begin(),
                                      raw.begin() + keep);
        EXPECT_THROW(ckpt::Checkpoint::deserialize(bad), ckpt::Error)
            << "truncation to " << keep << " bytes not detected";
    }
}

TEST(CheckpointFile, ShortWriteNeverLeavesAPartialFile)
{
    // Atomicity under a failing disk: a write that cannot finish
    // must throw ckpt::Error and leave NO file behind — neither the
    // final path (rename never ran) nor the temp (unlinked), so a
    // reader can never observe a torn checkpoint.
    ckpt::Checkpoint ck;
    auto &s = ck.add("payload");
    for (int i = 0; i < 64; ++i)
        s.putU64(std::uint64_t(i) * 0x9e3779b97f4a7c15ull);

    TempPath p("short_write.ckpt");
    ckpt::testing::setShortWriteBudget(16);
    EXPECT_THROW(ck.writeFile(p.str()), ckpt::Error);
    ckpt::testing::setShortWriteBudget(-1);
    EXPECT_THROW(ckpt::Checkpoint::readFile(p.str()), ckpt::Error)
        << "a failed write must not leave the final file";
    std::ifstream tmp(p.str() + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good())
        << "a failed write must unlink its temp file";

    // And an overwrite that fails must keep the OLD file intact.
    ck.writeFile(p.str());
    ckpt::Checkpoint ck2;
    ck2.add("payload").putU64(7);
    ckpt::testing::setShortWriteBudget(4);
    EXPECT_THROW(ck2.writeFile(p.str()), ckpt::Error);
    ckpt::testing::setShortWriteBudget(-1);
    ckpt::Checkpoint back = ckpt::Checkpoint::readFile(p.str());
    EXPECT_EQ(back.section("payload").getU64(),
              0ull * 0x9e3779b97f4a7c15ull);
}

TEST(CheckpointFile, VersionMismatchThrows)
{
    ckpt::Checkpoint ck;
    ck.add("payload").putU64(1);
    std::vector<std::uint8_t> raw = ck.serialize();
    // Bump the version field (offset 8, after the magic) and re-seal
    // the file checksum so only the version check can complain.
    raw[8] += 1;
    std::uint64_t sum = ckpt::WordSum::of(
        raw.data(), raw.size() - sizeof(std::uint64_t));
    std::memcpy(raw.data() + raw.size() - sizeof(sum), &sum,
                sizeof(sum));
    EXPECT_THROW(ckpt::Checkpoint::deserialize(raw), ckpt::Error);
}

/** A serialized one-section checkpoint relabelled as @p version,
 *  with its file checksum recomputed. */
std::vector<std::uint8_t>
checkpointOfVersion(std::uint32_t version)
{
    ckpt::Checkpoint ck;
    ck.add("payload").putU64(1);
    std::vector<std::uint8_t> raw = ck.serialize();
    std::memcpy(raw.data() + 8, &version, sizeof(version));
    std::uint64_t sum = ckpt::WordSum::of(
        raw.data(), raw.size() - sizeof(std::uint64_t));
    std::memcpy(raw.data() + raw.size() - sizeof(sum), &sum,
                sizeof(sum));
    return raw;
}

TEST(CheckpointFile, FormatVersionOneIsRefused)
{
    // Version 2 dropped a counter from the EventQueue section, so a
    // version-1 file must be refused, never misparsed.
    EXPECT_THROW(ckpt::Checkpoint::deserialize(checkpointOfVersion(1)),
                 ckpt::Error);
}

TEST(CheckpointFile, FormatVersionTwoIsRefused)
{
    // Version 3 packs each cache way into one tag word (and drops the
    // LRU clock), so a version-2 file must be refused too.
    EXPECT_THROW(ckpt::Checkpoint::deserialize(checkpointOfVersion(2)),
                 ckpt::Error);
    EXPECT_NO_THROW(ckpt::Checkpoint::deserialize(
        checkpointOfVersion(ckpt::Checkpoint::formatVersion)));
}

TEST(CheckpointFile, FormatVersionThreeIsRefused)
{
    // Version 4 seals sections and the file with WordSum instead of
    // byte-wise FNV-1a. The version is checked before the file sum,
    // so a version-3 file is refused for its version, not reported
    // as corrupt.
    try {
        ckpt::Checkpoint::deserialize(checkpointOfVersion(3));
        FAIL() << "a version-3 checkpoint was accepted";
    } catch (const ckpt::Error &e) {
        EXPECT_STREQ(e.what(), "unsupported checkpoint format "
                               "version 3 (expected 4)");
    }
}

/** @p n deterministic, irregular bytes. */
std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint8_t &b : v) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = std::uint8_t(x >> 56);
    }
    return v;
}

TEST(WordSum, EverySplitStreamsToTheOneShotSum)
{
    const std::vector<std::uint8_t> buf = patternBytes(101);
    const std::uint64_t whole = ckpt::WordSum::of(buf.data(), 101);
    for (std::size_t a = 0; a <= buf.size(); ++a) {
        for (std::size_t b = a; b <= buf.size(); ++b) {
            ckpt::WordSum sum;
            sum.update(buf.data(), a);
            sum.update(buf.data() + a, b - a);
            sum.update(buf.data() + b, buf.size() - b);
            ASSERT_EQ(sum.value(), whole)
                << "split at " << a << " and " << b;
        }
    }
}

TEST(WordSum, EveryOneAndTwoBitFlipChangesTheSum)
{
    for (std::size_t n : {72u, 101u}) {
        std::vector<std::uint8_t> buf = patternBytes(n);
        const std::uint64_t clean = ckpt::WordSum::of(buf.data(), n);
        const std::size_t bits = 8 * n;
        std::size_t missed = 0;
        for (std::size_t i = 0; i < bits; ++i) {
            buf[i / 8] ^= std::uint8_t(1u << (i % 8));
            missed += ckpt::WordSum::of(buf.data(), n) == clean;
            for (std::size_t j = i + 1; j < bits; ++j) {
                buf[j / 8] ^= std::uint8_t(1u << (j % 8));
                missed += ckpt::WordSum::of(buf.data(), n) == clean;
                buf[j / 8] ^= std::uint8_t(1u << (j % 8));
            }
            buf[i / 8] ^= std::uint8_t(1u << (i % 8));
        }
        EXPECT_EQ(missed, 0u) << n << "-byte buffer";
    }
}

TEST(WordSum, AppendingAZeroByteChangesTheSum)
{
    const std::vector<std::uint8_t> zeros(25, 0);
    const std::vector<std::uint8_t> mixed = patternBytes(25);
    for (std::size_t n = 0; n < 24; ++n) {
        EXPECT_NE(ckpt::WordSum::of(zeros.data(), n),
                  ckpt::WordSum::of(zeros.data(), n + 1))
            << n << " zero bytes";
        std::vector<std::uint8_t> longer(mixed.begin(),
                                         mixed.begin() + n);
        longer.push_back(0);
        EXPECT_NE(ckpt::WordSum::of(mixed.data(), n),
                  ckpt::WordSum::of(longer.data(), n + 1))
            << n << " pattern bytes";
    }
}

TEST(CheckpointRng, StreamResumesExactly)
{
    Rng a(12345);
    for (int i = 0; i < 1000; ++i)
        (void)a.next();

    ckpt::Section s("rng");
    a.checkpointSave(s);

    Rng b(999); // deliberately different seed
    b.checkpointRestore(s);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next()) << "draw " << i;
}

TEST(CheckpointStats, TreeRoundTripsThroughSection)
{
    stats::StatGroup root("root");
    stats::Scalar sc(&root, "count", "a scalar");
    stats::Distribution dist(&root, "lat", "a distribution");
    stats::Histogram hist(&root, "hist", "a histogram", 10.0, 4);
    double shadow = 7;
    stats::Value val(&root, "live", "a live value",
                     [&shadow] { return shadow; });
    stats::StatGroup child("child", &root);
    stats::Scalar childSc(&child, "nested", "nested scalar");

    sc = 17;
    childSc = 3;
    for (double v : {1.0, 5.0, 25.0, 125.0}) {
        dist.sample(v);
        hist.sample(v);
    }

    ckpt::Section s("stats");
    ckpt::saveStats(root, s);

    // A structurally identical but freshly zeroed tree.
    stats::StatGroup root2("root");
    stats::Scalar sc2(&root2, "count", "a scalar");
    stats::Distribution dist2(&root2, "lat", "a distribution");
    stats::Histogram hist2(&root2, "hist", "a histogram", 10.0, 4);
    stats::Value val2(&root2, "live", "a live value",
                      [&shadow] { return shadow; });
    stats::StatGroup child2("child", &root2);
    stats::Scalar childSc2(&child2, "nested", "nested scalar");

    ckpt::restoreStats(root2, s);

    std::ostringstream ja, jb;
    stats::toJson(root, ja);
    stats::toJson(root2, jb);
    EXPECT_EQ(ja.str(), jb.str())
        << "restored stats tree must serialize identically";

    // The Welford accumulators must continue identically, not just
    // report the same summary.
    dist.sample(0.3);
    dist2.sample(0.3);
    EXPECT_EQ(dist.stddev(), dist2.stddev());
}

TEST(CheckpointStats, StructuralMismatchThrows)
{
    stats::StatGroup root("root");
    stats::Scalar sc(&root, "count", "a scalar");
    ckpt::Section s("stats");
    ckpt::saveStats(root, s);

    stats::StatGroup other("root");
    stats::Scalar otherSc(&other, "renamed", "a scalar");
    EXPECT_THROW(ckpt::restoreStats(other, s), ckpt::Error);
}

TEST(CheckpointEventQueue, DrainRefillRoundTrip)
{
    // Reference run: a periodic event that samples the rng, never
    // interrupted.
    auto makeRun = [](EventQueue &eq, Rng &rng,
                      std::vector<std::uint64_t> &trace,
                      EventFunctionWrapper *&ev) {
        ev = new EventFunctionWrapper(
            [&eq, &rng, &trace, &ev] {
                trace.push_back(eq.curTick() ^ rng.next());
                eq.schedule(ev, eq.curTick() + 100000);
            },
            "periodic");
    };

    std::vector<std::uint64_t> refTrace;
    EventQueue refEq;
    Rng refRng(7);
    EventFunctionWrapper *refEv = nullptr;
    makeRun(refEq, refRng, refTrace, refEv);
    refEq.schedule(refEv, 100000);
    refEq.run(1000000);
    refEq.run(2000000);
    refEq.deschedule(refEv);
    delete refEv;

    // Checkpointed run: stop at tick 1000000, snapshot, restore into
    // a brand-new queue/rng, finish there.
    std::vector<std::uint64_t> trace;
    ckpt::Checkpoint ck;
    Tick evWhen = 0;
    {
        EventQueue eq;
        Rng rng(7);
        EventFunctionWrapper *ev = nullptr;
        makeRun(eq, rng, trace, ev);
        eq.schedule(ev, 100000);
        eq.run(1000000);

        evWhen = ev->when();
        ck.add("when").putU64(evWhen);
        rng.checkpointSave(ck.add("rng"));
        eq.checkpointSave(ck.add("eq"));
        eq.deschedule(ev); // drain
        delete ev;
    }
    {
        EventQueue eq;
        Rng rng(31337);
        EventFunctionWrapper *ev = nullptr;
        makeRun(eq, rng, trace, ev);
        rng.checkpointRestore(ck.section("rng"));
        eq.checkpointRestore(ck.section("eq"));
        {
            EventQueue::CounterFreeze freeze(eq);
            eq.schedule(ev, ck.section("when").getU64()); // refill
        }
        eq.run(2000000);
        eq.deschedule(ev);
        delete ev;
    }
    EXPECT_EQ(trace, refTrace);
}

TEST(CheckpointEventQueue, CountersSurviveRoundTrip)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        OneShotEvent::schedule(eq, Tick(i) * 1000,
                               [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 10);
    EventQueue::Counters before = eq.counters();

    ckpt::Section s("eq");
    eq.checkpointSave(s);

    EventQueue eq2;
    eq2.checkpointRestore(s);
    EXPECT_EQ(eq2.curTick(), eq.curTick());
    EXPECT_EQ(eq2.counters().processed, before.processed);
    EXPECT_EQ(eq2.counters().schedules, before.schedules);
    EXPECT_EQ(eq2.counters().oneShotPoolMisses,
              before.oneShotPoolMisses);
}

TEST(CheckpointEventQueue, RestoreWithLiveEventsPanics)
{
    EventQueue eq;
    ckpt::Section s("eq");
    eq.checkpointSave(s);

    EventQueue eq2;
    EventFunctionWrapper ev([] {}, "live");
    eq2.schedule(&ev, 10);
    EXPECT_DEATH(eq2.checkpointRestore(s), "still live");
    eq2.deschedule(&ev);
}

TEST(CheckpointEventQueue, CancelFlagStopsRun)
{
    EventQueue eq;
    std::atomic<bool> cancel{false};
    std::uint64_t fired = 0;
    EventFunctionWrapper *ev = nullptr;
    EventFunctionWrapper periodic(
        [&] {
            if (++fired == 3 * EventQueue::cancelPollInterval)
                cancel.store(true, std::memory_order_relaxed);
            eq.schedule(ev, eq.curTick() + 1);
        },
        "periodic");
    ev = &periodic;
    eq.schedule(ev, 1);

    eq.setCancelFlag(&cancel);
    eq.run(maxTick);
    EXPECT_TRUE(eq.cancelRequested());
    // Cancellation lands at the next poll boundary after the flag
    // was raised — bounded, cooperative, with events left queued.
    EXPECT_GE(fired, 3 * EventQueue::cancelPollInterval);
    EXPECT_LE(fired, 4 * EventQueue::cancelPollInterval);
    EXPECT_FALSE(eq.empty());

    // Clearing the flag resumes normally.
    cancel.store(false);
    eq.deschedule(ev);
}

} // namespace
