/**
 * @file
 * A tag-only set-associative cache model with LRU replacement.
 *
 * Used for the Centaur memory buffer's 16 MB eDRAM cache and for the
 * processor-side cache hierarchy. Tag-only: functional data always
 * lives in the MemImage (there is a single coherent requester per
 * image in this system), so the cache tracks presence and dirtiness
 * to decide timing, fills and writebacks.
 */

#ifndef CONTUTTO_MEM_CACHE_MODEL_HH
#define CONTUTTO_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>

#include <sys/mman.h>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace contutto::mem
{

/** Tag-only LRU cache. */
class CacheModel
{
  public:
    /**
     * @param capacity total bytes.
     * @param line_size bytes per line.
     * @param ways associativity.
     */
    CacheModel(std::uint64_t capacity, unsigned line_size,
               unsigned ways)
        : lineSize_(line_size), ways_(ways),
          numSets_(unsigned(capacity / line_size / ways))
    {
        ct_assert(line_size > 0 && ways > 0);
        ct_assert(capacity % (std::uint64_t(line_size) * ways) == 0);
        ct_assert(numSets_ > 0);
        // Zero pages: an all-zero Way is an invalid line, so a fresh
        // anonymous mapping is an empty cache without touching the
        // tag array (a 16 MiB eDRAM's is 3 MiB), and a page costs
        // memory only once a fill writes it. calloc would clear a
        // chunk it reuses from the heap eagerly.
        const std::size_t n = std::size_t(numSets_) * ways;
        void *m = mmap(nullptr, n * sizeof(Way), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (m == MAP_FAILED)
            throw std::bad_alloc();
        storage_ = {static_cast<Way *>(m), Unmap{n * sizeof(Way)}};
        sets_ = std::span<Way>(storage_.get(), n);
    }

    /** Result of a fill: the evicted dirty victim, if any. */
    struct Victim
    {
        Addr lineAddr;
        bool dirty;
    };

    /** True when the line holding @p addr is present; updates LRU. */
    bool
    lookup(Addr addr)
    {
        Way *w = find(addr);
        if (w) {
            touch(*w);
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /** Presence check without LRU or stats side effects. */
    bool
    probe(Addr addr) const
    {
        return const_cast<CacheModel *>(this)->find(addr) != nullptr;
    }

    /**
     * Insert the line for @p addr (no-op if present).
     * @return an evicted victim when one had to make room.
     */
    std::optional<Victim>
    fill(Addr addr, bool dirty = false)
    {
        Way *w = find(addr);
        if (w) {
            w->dirty = w->dirty || dirty;
            touch(*w);
            return std::nullopt;
        }
        unsigned set = setOf(addr);
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_; ++i) {
            Way &cand = sets_[std::size_t(set) * ways_ + i];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (!victim || cand.lru < victim->lru)
                victim = &cand;
        }
        std::optional<Victim> out;
        if (victim->valid) {
            out = Victim{victim->tag * std::uint64_t(numSets_)
                                 * lineSize_
                             + Addr(set) * lineSize_,
                         victim->dirty};
            ++evictions_;
        }
        victim->valid = true;
        victim->tag = tagOf(addr);
        victim->dirty = dirty;
        touch(*victim);
        return out;
    }

    /** Mark the line dirty (write hit); returns false on miss. */
    bool
    writeHit(Addr addr)
    {
        Way *w = find(addr);
        if (!w) {
            ++misses_;
            return false;
        }
        w->dirty = true;
        touch(*w);
        ++hits_;
        return true;
    }

    /** Drop a line if present (invalidation). */
    void
    invalidate(Addr addr)
    {
        Way *w = find(addr);
        if (w)
            w->valid = false;
    }

    /** Drop everything. */
    void
    invalidateAll()
    {
        for (Way &w : sets_)
            w.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    unsigned lineSize() const { return lineSize_; }

    double
    hitRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? double(hits_) / double(total) : 0.0;
    }

    /** @{ Checkpoint the full tag array, LRU clock and counters.
     *  Plain methods (not ckpt::Checkpointable) so the model keeps
     *  no vtable; owners embed this in their own sections. Geometry
     *  must match at restore. */
    void
    checkpointSave(ckpt::Section &out) const
    {
        out.putU64(lruClock_);
        out.putU64(hits_);
        out.putU64(misses_);
        out.putU64(evictions_);
        out.putU64(sets_.size());
        for (const Way &w : sets_) {
            out.putU8(w.valid ? 1 : 0);
            out.putU8(w.dirty ? 1 : 0);
            out.putU64(w.tag);
            out.putU64(w.lru);
        }
    }

    void
    checkpointRestore(ckpt::Section &in)
    {
        lruClock_ = in.getU64();
        hits_ = in.getU64();
        misses_ = in.getU64();
        evictions_ = in.getU64();
        if (in.getU64() != sets_.size())
            throw ckpt::Error("cache geometry mismatch");
        for (Way &w : sets_) {
            w.valid = in.getU8() != 0;
            w.dirty = in.getU8() != 0;
            w.tag = in.getU64();
            w.lru = in.getU64();
        }
    }
    /** @} */

  private:
    /** Plain data: all-zero bytes are the empty state. */
    struct Way
    {
        bool valid;
        bool dirty;
        std::uint64_t tag;
        std::uint64_t lru;
    };
    static_assert(std::is_trivial_v<Way>);

    struct Unmap
    {
        std::size_t bytes;
        void operator()(Way *p) const { munmap(p, bytes); }
    };

    unsigned setOf(Addr addr) const
    {
        return unsigned((addr / lineSize_) % numSets_);
    }

    std::uint64_t tagOf(Addr addr) const
    {
        return addr / lineSize_ / numSets_;
    }

    Way *
    find(Addr addr)
    {
        unsigned set = setOf(addr);
        std::uint64_t tag = tagOf(addr);
        for (unsigned i = 0; i < ways_; ++i) {
            Way &w = sets_[std::size_t(set) * ways_ + i];
            if (w.valid && w.tag == tag)
                return &w;
        }
        return nullptr;
    }

    void touch(Way &w) { w.lru = ++lruClock_; }

    unsigned lineSize_;
    unsigned ways_;
    unsigned numSets_;
    std::unique_ptr<Way, Unmap> storage_;
    std::span<Way> sets_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_CACHE_MODEL_HH
