/**
 * @file
 * Sparse functional memory image.
 *
 * Every memory device owns a MemImage holding its actual contents so
 * experiments operate on real data (accelerators compute on it, the
 * NVDIMM saves and restores it). Pages materialize on first touch;
 * untouched memory reads as zero.
 *
 * Host layout: a flat table with one page pointer per page of
 * capacity, in an anonymous mapping so the table pages no access
 * reaches cost no memory, and a list of the page numbers that have
 * materialized, in the order they did, which owns the pages.
 */

#ifndef CONTUTTO_MEM_MEM_IMAGE_HH
#define CONTUTTO_MEM_MEM_IMAGE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dmi/command.hh"
#include "sim/checkpoint.hh"
#include "sim/types.hh"

namespace contutto::mem
{

/** Correction summary returned by MemImage::verify. */
struct EccScan
{
    std::uint64_t corrected = 0;     ///< Single-bit faults repaired.
    std::uint64_t uncorrectable = 0; ///< Multi-bit faults detected.
};

/** Byte-addressable sparse memory contents. */
class MemImage : public ckpt::Checkpointable
{
  public:
    explicit MemImage(std::uint64_t capacity);
    ~MemImage() override;

    MemImage(const MemImage &) = delete;
    MemImage &operator=(const MemImage &) = delete;

    std::uint64_t capacity() const { return capacity_; }

    /** Read @p len bytes at @p addr into @p out. */
    void read(Addr addr, std::size_t len, std::uint8_t *out) const;

    /** Write @p len bytes from @p in at @p addr. */
    void write(Addr addr, std::size_t len, const std::uint8_t *in);

    /**
     * write() for functional warming: a zero store into pages never
     * written is dropped, since they already read as zero. Contents
     * end up exactly as after write(); only untouched pages stay
     * unmaterialized.
     */
    void warmWrite(Addr addr, std::size_t len, const std::uint8_t *in);

    /**
     * Byte-enabled write of one cache line (the RMW merge the
     * buffer's ALU performs).
     */
    void writeMasked(Addr addr, const dmi::CacheLine &data,
                     const dmi::ByteEnable &enables);

    /** @{ Typed convenience accessors (little-endian). */
    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t value);
    std::uint32_t read32(Addr addr) const;
    void write32(Addr addr, std::uint32_t value);
    /** @} */

    /** Drop all contents (models volatile memory losing power). */
    void clear();

    /** Copy the full contents of @p other, an image of the same
     *  capacity (NVDIMM restore). */
    void copyFrom(const MemImage &other);

    /** Number of materialized pages (footprint checks in tests). */
    std::size_t pagesTouched() const { return touched_.size(); }

    /**
     * @{ SEC-DED ECC. Each 8 B word carries one Hamming(72,64) check
     * byte, and that byte is eccEncode(word) unless a fault was
     * injected into the word since it was last written; only those
     * words are stored (the fault record). verify() decodes the
     * recorded words in a range, repairing single-bit faults in
     * place (data or check bits) and counting multi-bit faults,
     * which stay recorded for the caller to poison. Any write over
     * a word drops its record.
     */
    EccScan verify(Addr addr, std::size_t len);

    /**
     * Flip one data bit and keep the word's check byte as it was:
     * the fault a later verify() must detect. Bit faults in the
     * check storage itself are modelled by @c injectCheckBitFlip.
     */
    void injectBitFlip(Addr addr, unsigned bit);
    void injectCheckBitFlip(Addr addr, unsigned bit);

    /** @{ Lifetime ECC accounting (corrections by any caller). */
    std::uint64_t correctedErrors() const { return correctedTotal_; }
    std::uint64_t uncorrectableErrors() const
    {
        return uncorrectableTotal_;
    }
    /** @} */
    /** @} */

    static constexpr std::size_t pageSize = 4096;

    /**
     * @{ ckpt::Checkpointable: every materialized page (its data,
     * then the check byte of each of its words, in page-number order
     * so the byte stream is canonical) plus the lifetime correction
     * counters. Restore replaces the whole image; capacity must
     * match, and a page number past capacity or given twice is a
     * ckpt::Error.
     */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    std::uint8_t *pageFor(Addr addr, bool create);
    const std::uint8_t *pageFor(Addr addr) const;

    /** The table entry of page @p pageno. */
    std::uint8_t *&slot(std::uint64_t pageno) const
    {
        return table_.get()[pageno];
    }

    /** Materialize page @p pageno, all zero; it must not exist
     *  yet. */
    std::uint8_t *newPage(std::uint64_t pageno);

    /** The recorded check byte of @p word, materializing its page;
     *  a word without a record gets one holding eccEncode(word). */
    std::uint8_t &faultFor(Addr word);

    struct Unmap
    {
        std::size_t bytes;
        void operator()(std::uint8_t **p) const;
    };

    std::uint64_t capacity_;
    std::uint64_t numPages_;
    /** Page number -> page of pageSize bytes, null until first
     *  written. */
    std::unique_ptr<std::uint8_t *, Unmap> table_;
    /** Every non-null table slot's page number, in materialization
     *  order; the pages they point to are owned here. */
    std::vector<std::uint64_t> touched_;
    /** Word address -> stored check byte, for every word whose
     *  check byte is not eccEncode(word). */
    std::map<Addr, std::uint8_t> faults_;
    std::uint64_t correctedTotal_ = 0;
    std::uint64_t uncorrectableTotal_ = 0;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_MEM_IMAGE_HH
