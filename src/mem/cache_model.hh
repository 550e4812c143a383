/**
 * @file
 * A tag-only set-associative cache model with LRU replacement.
 *
 * Used for the Centaur memory buffer's 16 MB eDRAM cache and for the
 * processor-side cache hierarchy. Tag-only: functional data always
 * lives in the MemImage (there is a single coherent requester per
 * image in this system), so the cache tracks presence and dirtiness
 * to decide timing, fills and writebacks.
 *
 * Host layout: each way is one 8-byte word holding the tag, a valid
 * bit, a dirty bit and the way's LRU age within its set (0 = most
 * recently used). The ages of a set's valid ways are always a
 * permutation of 0..k-1, so replacement follows exact LRU order
 * without a global clock, and an 8-way set fills one 64-byte host
 * line.
 */

#ifndef CONTUTTO_MEM_CACHE_MODEL_HH
#define CONTUTTO_MEM_CACHE_MODEL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>

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
          numSets_(unsigned(capacity / line_size / ways)),
          tagShift_(ageShift + unsigned(std::bit_width(ways - 1u))),
          ageMask_(((Word(1) << tagShift_) - 1) & ~flagMask)
    {
        // Restore checks a set's ages with a 64-bit mask.
        ct_assert(line_size > 0 && ways > 0 && ways <= 64);
        ct_assert(capacity % (std::uint64_t(line_size) * ways) == 0);
        ct_assert(numSets_ > 0);
        // The tag of the highest address, the age field and the two
        // flags share one word.
        ct_assert(unsigned(std::bit_width(~Addr(0) / line_size / numSets_))
                  <= 64 - tagShift_);
        // Zero pages: an all-zero Word is an invalid way, so a fresh
        // anonymous mapping is an empty cache without touching the
        // tag array (a 16 MiB eDRAM's is 1 MiB), and a page costs
        // memory only once a fill writes it. calloc would clear a
        // chunk it reuses from the heap eagerly. The mapping is page
        // aligned, so an 8-way set never straddles a host line.
        const std::size_t n = std::size_t(numSets_) * ways;
        void *m = mmap(nullptr, n * sizeof(Word), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (m == MAP_FAILED)
            throw std::bad_alloc();
        storage_ = {static_cast<Word *>(m), Unmap{n * sizeof(Word)}};
        sets_ = std::span<Word>(storage_.get(), n);
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
        Word *set = setFor(addr);
        Word *w = find(set, addr);
        if (w) {
            touch(set, *w);
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
        auto *self = const_cast<CacheModel *>(this);
        return self->find(self->setFor(addr), addr) != nullptr;
    }

    /**
     * Insert the line for @p addr (no-op if present).
     * @return an evicted victim when one had to make room.
     */
    std::optional<Victim>
    fill(Addr addr, bool dirty = false)
    {
        Word *set = setFor(addr);
        Word *w = find(set, addr);
        if (w) {
            if (dirty)
                *w |= dirtyBit;
            touch(set, *w);
            return std::nullopt;
        }
        // The first invalid way, else the oldest valid one.
        const Word oldest = Word(ways_ - 1) << ageShift;
        Word *victim = nullptr;
        for (unsigned i = 0; i < ways_; ++i) {
            if (!(set[i] & validBit)) {
                victim = &set[i];
                break;
            }
            if ((set[i] & ageMask_) == oldest)
                victim = &set[i];
        }
        std::optional<Victim> out;
        if (*victim & validBit) {
            const Addr setNo =
                Addr(set - sets_.data()) / ways_;
            out = Victim{((*victim >> tagShift_) * numSets_ + setNo)
                             * lineSize_,
                         (*victim & dirtyBit) != 0};
            ++evictions_;
        }
        touch(set, *victim);
        *victim = (tagOf(addr) << tagShift_) | validBit
            | (dirty ? dirtyBit : 0);
        return out;
    }

    /** Mark the line dirty (write hit); returns false on miss. */
    bool
    writeHit(Addr addr)
    {
        Word *set = setFor(addr);
        Word *w = find(set, addr);
        if (!w) {
            ++misses_;
            return false;
        }
        *w |= dirtyBit;
        touch(set, *w);
        ++hits_;
        return true;
    }

    /** Drop a line if present (invalidation). */
    void
    invalidate(Addr addr)
    {
        Word *set = setFor(addr);
        Word *w = find(set, addr);
        if (!w)
            return;
        // Close the gap the line leaves in its set's ages.
        const Word age = *w & ageMask_;
        *w = 0;
        for (unsigned i = 0; i < ways_; ++i)
            if ((set[i] & validBit) && (set[i] & ageMask_) > age)
                set[i] -= ageOne;
    }

    /** Drop everything. */
    void
    invalidateAll()
    {
        std::ranges::fill(sets_, Word(0));
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

    /** @{ Checkpoint the full tag array and counters.
     *  Plain methods (not ckpt::Checkpointable) so the model keeps
     *  no vtable; owners embed this in their own sections. Geometry
     *  must match at restore, and every restored set must be one a
     *  run could reach: invalid ways all-zero, valid ways' ages a
     *  permutation of 0..k-1. */
    void
    checkpointSave(ckpt::Section &out) const
    {
        out.putU64(hits_);
        out.putU64(misses_);
        out.putU64(evictions_);
        out.putU64(sets_.size());
        out.putBytes(sets_.data(), sets_.size_bytes());
    }

    void
    checkpointRestore(ckpt::Section &in)
    {
        hits_ = in.getU64();
        misses_ = in.getU64();
        evictions_ = in.getU64();
        if (in.getU64() != sets_.size())
            throw ckpt::Error("cache geometry mismatch");
        in.getBytes(sets_.data(), sets_.size_bytes());
        for (std::size_t s = 0; s < numSets_; ++s) {
            const Word *set = &sets_[s * ways_];
            std::uint64_t ages = 0;
            unsigned valid = 0;
            for (unsigned i = 0; i < ways_; ++i) {
                if (!(set[i] & validBit)) {
                    if (set[i] != 0)
                        throw ckpt::Error("cache invalid way not zero");
                    continue;
                }
                ++valid;
                ages |= std::uint64_t(1) << ageOf(set[i]);
            }
            if (unsigned(std::popcount(ages)) != valid
                || unsigned(std::bit_width(ages)) != valid)
                throw ckpt::Error("cache set ages corrupt");
        }
    }
    /** @} */

  private:
    /** One way: tag << tagShift_ | age << ageShift | dirty | valid.
     *  All-zero bytes are the empty state. */
    using Word = std::uint64_t;
    static constexpr Word validBit = 1;
    static constexpr Word dirtyBit = 2;
    static constexpr Word flagMask = validBit | dirtyBit;
    static constexpr unsigned ageShift = 2;
    static constexpr Word ageOne = Word(1) << ageShift;
    static_assert(8 * sizeof(Word) == 64,
                  "an 8-way set must fill one 64-byte host line");

    struct Unmap
    {
        std::size_t bytes;
        void operator()(Word *p) const { munmap(p, bytes); }
    };

    unsigned ageOf(Word w) const
    {
        return unsigned((w & ageMask_) >> ageShift);
    }

    Word *
    setFor(Addr addr)
    {
        const Addr line = addr / lineSize_;
        return &sets_[std::size_t(line % numSets_) * ways_];
    }

    Word tagOf(Addr addr) const { return addr / lineSize_ / numSets_; }

    Word *
    find(Word *set, Addr addr)
    {
        // Compare tag and valid bit in one go; age and dirty are
        // masked off.
        const Word key = (tagOf(addr) << tagShift_) | validBit;
        const Word mask = ~(ageMask_ | dirtyBit);
        for (unsigned i = 0; i < ways_; ++i)
            if ((set[i] & mask) == key)
                return &set[i];
        return nullptr;
    }

    /** Make @p w its set's most recently used way: every valid way
     *  younger than it ages by one, and @p w's age becomes 0. An
     *  invalid @p w is older than every valid way. */
    void
    touch(Word *set, Word &w)
    {
        const Word age = (w & validBit) ? (w & ageMask_)
                                        : ageMask_ + ageOne;
        for (unsigned i = 0; i < ways_; ++i)
            if ((set[i] & validBit) && (set[i] & ageMask_) < age)
                set[i] += ageOne;
        w &= ~ageMask_;
    }

    unsigned lineSize_;
    unsigned ways_;
    unsigned numSets_;
    unsigned tagShift_;
    Word ageMask_;
    std::unique_ptr<Word, Unmap> storage_;
    std::span<Word> sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_CACHE_MODEL_HH
