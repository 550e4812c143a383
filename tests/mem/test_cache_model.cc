/** @file Cache model tests: LRU semantics vs a reference model. */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <tuple>
#include <vector>

#include "mem/cache_model.hh"
#include "sim/random.hh"

using namespace contutto;
using namespace contutto::mem;

namespace
{

TEST(CacheModel, HitAfterFill)
{
    CacheModel c(8 * 1024, 128, 4);
    EXPECT_FALSE(c.lookup(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x1080));
}

TEST(CacheModel, LruEvictsColdestWay)
{
    // 4-way, 2 sets (1 KiB / 128 B lines): same-set addresses are
    // 256 B apart.
    CacheModel c(1024, 128, 4);
    Addr base = 0;
    // Fill the 4 ways of set 0.
    for (int i = 0; i < 4; ++i)
        c.fill(base + Addr(i) * 256);
    // Touch way 0 so way 1 becomes LRU.
    EXPECT_TRUE(c.lookup(base));
    auto victim = c.fill(base + 4 * 256);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, base + 1 * 256);
    EXPECT_TRUE(c.probe(base));              // recently used stays
    EXPECT_FALSE(c.probe(base + 1 * 256));   // LRU evicted
}

TEST(CacheModel, DirtyVictimsReported)
{
    CacheModel c(1024, 128, 2);
    c.fill(0x0, /*dirty=*/true);
    c.fill(0x200);
    auto victim = c.fill(0x400); // evicts the dirty 0x0
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->lineAddr, 0x0u);
}

TEST(CacheModel, WriteHitMarksDirty)
{
    CacheModel c(1024, 128, 2);
    c.fill(0x0);
    EXPECT_TRUE(c.writeHit(0x0));
    c.fill(0x200);
    auto victim = c.fill(0x400);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_FALSE(c.writeHit(0x9000)); // miss
}

TEST(CacheModel, InvalidateAndStats)
{
    CacheModel c(1024, 128, 2);
    c.fill(0x0);
    c.invalidate(0x0);
    EXPECT_FALSE(c.probe(0x0));
    c.fill(0x0);
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.lookup(0x0)); // counted as a miss
    EXPECT_GT(c.misses(), 0u);
}

TEST(CacheModelDeath, GeometryMustFitTheWord)
{
    // 8 sets of 4 B lines leave a 59-bit tag, and 16 ways need a
    // 4-bit age beside the two flags: 65 bits.
    EXPECT_DEATH(CacheModel(512, 4, 16), "assertion");
    CacheModel fits(1024, 4, 16); // 16 sets: 58-bit tag, 64 bits
    EXPECT_FALSE(fits.probe(~Addr(0)));
}

TEST(CacheModel, RestoreRefusesUnreachableSets)
{
    // 2 sets of 2 ways. Section layout: hits, misses, evictions,
    // way count, then the tag words as one blob.
    auto section = [](std::vector<std::uint64_t> words) {
        ckpt::Section s("cache");
        s.putU64(0);
        s.putU64(0);
        s.putU64(0);
        s.putU64(words.size());
        s.putBytes(words.data(), words.size() * 8);
        return s;
    };
    CacheModel c(512, 128, 2);
    // Word: tag << 3 | age << 2 | dirty << 1 | valid.
    auto ok = section({0x1, 0x4 | (Addr(1) << 3) | 0x1, 0, 0});
    c.checkpointRestore(ok);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(256)); // tag 1, set 0
    auto dirtyInvalid = section({0x2, 0, 0, 0});
    EXPECT_THROW(c.checkpointRestore(dirtyInvalid), ckpt::Error);
    auto twoMru = section({0x1, (Addr(1) << 3) | 0x1, 0, 0});
    EXPECT_THROW(c.checkpointRestore(twoMru), ckpt::Error);
    auto gap = section({0x4 | 0x1, 0, 0, 0});
    EXPECT_THROW(c.checkpointRestore(gap), ckpt::Error);
    auto shortArray = section({0, 0});
    EXPECT_THROW(c.checkpointRestore(shortArray), ckpt::Error);
}

/** Reference model: per-set LRU lists, most recent first. */
class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned ways, unsigned line)
        : sets_(sets), ways_(ways), line_(line)
    {}

    /** A read or write access that fills on a miss. */
    bool
    access(Addr addr, bool is_write, std::optional<Addr> &victim,
           bool &victim_dirty)
    {
        victim.reset();
        auto &list = lru_[setOf(addr)];
        Addr tag = tagOf(addr);
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->tag == tag) {
                Way w = *it;
                w.dirty = w.dirty || is_write;
                list.erase(it);
                list.push_front(w);
                ++hits_;
                return true;
            }
        }
        ++misses_;
        // Miss: fill, evicting LRU if full.
        if (list.size() == ways_) {
            victim = (list.back().tag * sets_ + setOf(addr)) * line_;
            victim_dirty = list.back().dirty;
            list.pop_back();
            ++evictions_;
        }
        list.push_front(Way{tag, is_write});
        return false;
    }

    bool
    probe(Addr addr) const
    {
        auto it = lru_.find(setOf(addr));
        if (it == lru_.end())
            return false;
        for (const Way &w : it->second)
            if (w.tag == tagOf(addr))
                return true;
        return false;
    }

    void
    invalidate(Addr addr)
    {
        auto &list = lru_[setOf(addr)];
        list.remove_if(
            [&](const Way &w) { return w.tag == tagOf(addr); });
    }

    void invalidateAll() { lru_.clear(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Way
    {
        Addr tag;
        bool dirty;
    };

    std::uint64_t setOf(Addr addr) const { return addr / line_ % sets_; }
    Addr tagOf(Addr addr) const { return addr / line_ / sets_; }

    std::uint64_t sets_;
    unsigned ways_, line_;
    std::map<std::uint64_t, std::list<Way>> lru_;
    std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

/** A cache shape and the address range its fuzz run draws from. */
struct Geometry
{
    const char *name;
    std::uint64_t capacity;
    unsigned line, ways;
    unsigned addrBits; ///< Addresses lie below 2^addrBits.

    std::uint64_t sets() const { return capacity / line / ways; }
};

/**
 * Draws addresses that collide: a few hot sets (the first, the last
 * and random ones) each with a pool of three tags per way spread
 * over the whole address range, at any byte offset in the line.
 */
class AddrPool
{
  public:
    AddrPool(const Geometry &g, Rng &rng) : g_(g)
    {
        const std::uint64_t sets = g.sets();
        const Addr top = g.addrBits == 64
            ? ~Addr(0)
            : (Addr(1) << g.addrBits) - 1;
        const Addr maxTag = top / g.line / sets;
        hotSets_ = {0, sets - 1};
        while (hotSets_.size() < 4)
            hotSets_.push_back(rng.below(sets));
        for (unsigned i = 0; i < 3 * g.ways; ++i)
            tags_.push_back(i == 0 ? maxTag : rng.below(maxTag + 1));
    }

    Addr
    draw(Rng &rng) const
    {
        Addr tag = tags_[rng.below(tags_.size())];
        std::uint64_t set = hotSets_[rng.below(hotSets_.size())];
        return (tag * g_.sets() + set) * g_.line + rng.below(g_.line);
    }

  private:
    Geometry g_;
    std::vector<std::uint64_t> hotSets_;
    std::vector<Addr> tags_;
};

/**
 * Run @p ops random operations on @p c and @p ref side by side:
 * reads and writes that fill on a miss, probes, invalidations and a
 * rare invalidateAll. Every outcome and counter must agree.
 */
void
fuzz(CacheModel &c, RefCache &ref, const AddrPool &pool, Rng &rng,
     int ops)
{
    for (int op = 0; op < ops; ++op) {
        const Addr addr = pool.draw(rng);
        const std::uint64_t kind = rng.below(1000);
        if (kind < 100) {
            ASSERT_EQ(c.probe(addr), ref.probe(addr)) << "op " << op;
            continue;
        }
        if (kind < 150) {
            c.invalidate(addr);
            ref.invalidate(addr);
            continue;
        }
        if (kind < 151) {
            c.invalidateAll();
            ref.invalidateAll();
            continue;
        }
        const bool is_write = kind < 450;

        std::optional<Addr> ref_victim;
        bool ref_dirty = false;
        bool ref_hit =
            ref.access(addr, is_write, ref_victim, ref_dirty);

        bool hit;
        std::optional<CacheModel::Victim> victim;
        if (is_write) {
            hit = c.writeHit(addr);
            if (!hit)
                victim = c.fill(addr, /*dirty=*/true);
        } else {
            hit = c.lookup(addr);
            if (!hit)
                victim = c.fill(addr);
        }

        ASSERT_EQ(hit, ref_hit) << "op " << op;
        ASSERT_EQ(victim.has_value(), ref_victim.has_value())
            << "op " << op;
        if (victim) {
            ASSERT_EQ(victim->lineAddr, *ref_victim) << "op " << op;
            ASSERT_EQ(victim->dirty, ref_dirty) << "op " << op;
        }
    }
    EXPECT_EQ(c.hits(), ref.hits());
    EXPECT_EQ(c.misses(), ref.misses());
    EXPECT_EQ(c.evictions(), ref.evictions());
}

const Geometry geometries[] = {
    {"small4way", 128 * 4 * 16, 128, 4, 16},
    // Centaur's eDRAM cache over the 48-bit DMI address range.
    {"centaur", 16 * MiB, 128, 8, 48},
    {"wide16way", 256 * KiB, 64, 16, 64},
};

class CacheFuzz
    : public ::testing::TestWithParam<std::tuple<Geometry, std::uint64_t>>
{};

TEST_P(CacheFuzz, MatchesReferenceLru)
{
    const auto &[g, seed] = GetParam();
    CacheModel c(g.capacity, g.line, g.ways);
    RefCache ref(g.sets(), g.ways, g.line);
    Rng rng(seed);
    AddrPool pool(g, rng);
    fuzz(c, ref, pool, rng, 5000);
    EXPECT_GT(c.hitRate(), 0.0);
    EXPECT_GT(c.evictions(), 0u);
}

TEST_P(CacheFuzz, RestoredRunMatchesUninterruptedRun)
{
    const auto &[g, seed] = GetParam();
    Rng rng(seed);
    AddrPool pool(g, rng);

    CacheModel whole(g.capacity, g.line, g.ways);
    RefCache wholeRef(g.sets(), g.ways, g.line);
    Rng wholeRng = rng;
    fuzz(whole, wholeRef, pool, wholeRng, 6000);

    CacheModel first(g.capacity, g.line, g.ways);
    RefCache ref(g.sets(), g.ways, g.line);
    fuzz(first, ref, pool, rng, 3000);
    ckpt::Section saved("cache");
    first.checkpointSave(saved);

    CacheModel resumed(g.capacity, g.line, g.ways);
    resumed.checkpointRestore(saved);
    EXPECT_TRUE(saved.atEnd());
    fuzz(resumed, ref, pool, rng, 3000);

    ckpt::Section a("a"), b("b");
    whole.checkpointSave(a);
    resumed.checkpointSave(b);
    EXPECT_EQ(a.bytes(), b.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheFuzz,
    ::testing::Combine(::testing::ValuesIn(geometries),
                       ::testing::Values(21, 42, 63, 84)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_"
            + std::to_string(std::get<1>(info.param));
    });

} // namespace
