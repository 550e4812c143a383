#include "mem/mem_image.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include <sys/mman.h>

#include "ras/ecc.hh"
#include "sim/logging.hh"

namespace contutto::mem
{

namespace
{

/** Checkpoint blob of one page: its data, then one check byte per
 *  8 B word. */
constexpr std::size_t pageBlob =
    MemImage::pageSize + MemImage::pageSize / 8;

/** The first address past @p addr's page. */
Addr
pageEnd(Addr addr)
{
    return (addr / MemImage::pageSize + 1) * MemImage::pageSize;
}

std::uint64_t
loadWord(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
storeWord(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = std::uint8_t(v >> (8 * i));
}

} // namespace

MemImage::MemImage(std::uint64_t capacity)
    : capacity_(capacity), numPages_((capacity + pageSize - 1) / pageSize)
{
    ct_assert(capacity > 0);
    // Zero pages: an untouched table reads as all-null, and only the
    // table pages a write reaches cost memory. NORESERVE because a
    // 64 GiB image's table is 128 MiB of address space.
    const std::size_t bytes = numPages_ * sizeof(std::uint8_t *);
    void *m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (m == MAP_FAILED)
        throw std::bad_alloc();
    table_ = {static_cast<std::uint8_t **>(m), Unmap{bytes}};
}

MemImage::~MemImage()
{
    clear();
}

void
MemImage::Unmap::operator()(std::uint8_t **p) const
{
    munmap(p, bytes);
}

std::uint8_t *
MemImage::newPage(std::uint64_t pageno)
{
    ct_assert(pageno < numPages_ && !slot(pageno));
    std::unique_ptr<std::uint8_t[]> page(new std::uint8_t[pageSize]());
    touched_.push_back(pageno);
    return slot(pageno) = page.release();
}

std::uint8_t *
MemImage::pageFor(Addr addr, bool create)
{
    const std::uint64_t pageno = addr / pageSize;
    std::uint8_t *page = slot(pageno);
    if (!page && create)
        page = newPage(pageno);
    return page;
}

const std::uint8_t *
MemImage::pageFor(Addr addr) const
{
    return slot(addr / pageSize);
}

void
MemImage::read(Addr addr, std::size_t len, std::uint8_t *out) const
{
    if (addr + len > capacity_)
        panic("MemImage read past capacity (addr=%llx len=%zu)",
              (unsigned long long)addr, len);
    while (len > 0) {
        std::size_t off = addr % pageSize;
        std::size_t chunk = std::min(len, pageSize - off);
        const std::uint8_t *page = pageFor(addr);
        if (page)
            std::memcpy(out, page + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MemImage::write(Addr addr, std::size_t len, const std::uint8_t *in)
{
    if (addr + len > capacity_)
        panic("MemImage write past capacity (addr=%llx len=%zu)",
              (unsigned long long)addr, len);
    // Every word the range overlaps gets the check byte of its new
    // data.
    if (!faults_.empty())
        faults_.erase(faults_.lower_bound(addr & ~Addr(7)),
                      faults_.lower_bound(addr + len));
    while (len > 0) {
        std::size_t off = addr % pageSize;
        std::size_t chunk = std::min(len, pageSize - off);
        std::memcpy(pageFor(addr, true) + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
MemImage::warmWrite(Addr addr, std::size_t len, const std::uint8_t *in)
{
    if (addr + len > capacity_)
        panic("MemImage write past capacity (addr=%llx len=%zu)",
              (unsigned long long)addr, len);
    // Every driver stores zero lines: test them a word at a time.
    std::uint64_t bits = 0;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, in + i, 8);
        bits |= w;
    }
    for (; i < len; ++i)
        bits |= in[i];
    bool noop = bits == 0;
    for (Addr a = addr; noop && a < addr + len; a = pageEnd(a))
        noop = pageFor(a) == nullptr;
    if (!noop)
        write(addr, len, in);
}

void
MemImage::writeMasked(Addr addr, const dmi::CacheLine &data,
                      const dmi::ByteEnable &enables)
{
    for (std::size_t i = 0; i < dmi::cacheLineSize; ++i)
        if (enables[i])
            write(addr + i, 1, &data[i]);
}

std::uint64_t
MemImage::read64(Addr addr) const
{
    std::uint8_t buf[8];
    read(addr, 8, buf);
    return loadWord(buf);
}

void
MemImage::write64(Addr addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    storeWord(buf, value);
    write(addr, 8, buf);
}

std::uint32_t
MemImage::read32(Addr addr) const
{
    std::uint8_t buf[4];
    read(addr, 4, buf);
    return std::uint32_t(buf[0]) | (std::uint32_t(buf[1]) << 8)
        | (std::uint32_t(buf[2]) << 16) | (std::uint32_t(buf[3]) << 24);
}

void
MemImage::write32(Addr addr, std::uint32_t value)
{
    std::uint8_t buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = std::uint8_t(value >> (8 * i));
    write(addr, 4, buf);
}

void
MemImage::clear()
{
    for (std::uint64_t pageno : touched_) {
        delete[] slot(pageno);
        slot(pageno) = nullptr;
    }
    touched_.clear();
    faults_.clear();
}

void
MemImage::copyFrom(const MemImage &other)
{
    ct_assert(other.capacity_ == capacity_);
    clear();
    for (std::uint64_t pageno : other.touched_)
        std::memcpy(newPage(pageno), other.slot(pageno), pageSize);
    faults_ = other.faults_;
}

EccScan
MemImage::verify(Addr addr, std::size_t len)
{
    if (addr + len > capacity_)
        panic("MemImage verify past capacity (addr=%llx len=%zu)",
              (unsigned long long)addr, len);
    // A word without a record is clean by construction.
    EccScan scan;
    auto it = faults_.lower_bound(addr & ~Addr(7));
    const auto end = faults_.lower_bound(addr + len);
    while (it != end) {
        std::uint8_t *p = slot(it->first / pageSize) + it->first % pageSize;
        const ras::EccDecode dec = ras::eccDecode(loadWord(p), it->second);
        if (dec.status == ras::EccStatus::uncorrectable) {
            ++scan.uncorrectable;
            ++uncorrectableTotal_;
            ++it;
            continue;
        }
        if (dec.status == ras::EccStatus::corrected) {
            // The repaired word's check byte is eccEncode of its data.
            storeWord(p, dec.data);
            ++scan.corrected;
            ++correctedTotal_;
        }
        it = faults_.erase(it);
    }
    return scan;
}

std::uint8_t &
MemImage::faultFor(Addr word)
{
    if (word + 8 > capacity_)
        panic("MemImage fault injection past capacity (addr=%llx)",
              (unsigned long long)word);
    const std::uint8_t *page = pageFor(word, true);
    return faults_
        .try_emplace(word, ras::eccEncode(loadWord(page + word % pageSize)))
        .first->second;
}

void
MemImage::injectBitFlip(Addr addr, unsigned bit)
{
    ct_assert(bit < 64);
    const Addr word = addr & ~Addr(7);
    faultFor(word);
    std::uint8_t *p = slot(word / pageSize) + word % pageSize;
    storeWord(p, loadWord(p) ^ (std::uint64_t(1) << bit));
}

void
MemImage::injectCheckBitFlip(Addr addr, unsigned bit)
{
    ct_assert(bit < 8);
    faultFor(addr & ~Addr(7)) ^= std::uint8_t(1u << bit);
}

void
MemImage::checkpointSave(ckpt::Section &out) const
{
    out.putU64(capacity_);
    out.putU64(correctedTotal_);
    out.putU64(uncorrectableTotal_);

    // Pages in page-number order so the same contents always
    // serialize to the same bytes, whatever order they materialized
    // in.
    std::vector<std::uint64_t> pagenos = touched_;
    std::sort(pagenos.begin(), pagenos.end());

    out.putU64(pagenos.size());
    std::uint8_t blob[pageBlob];
    std::uint8_t *const check = blob + pageSize;
    for (std::uint64_t pageno : pagenos) {
        std::memcpy(blob, slot(pageno), pageSize);
        for (std::size_t w = 0; w < pageSize / 8; ++w)
            check[w] = ras::eccEncode(loadWord(blob + 8 * w));
        const Addr base = pageno * pageSize;
        for (auto it = faults_.lower_bound(base);
             it != faults_.end() && it->first < base + pageSize; ++it)
            check[(it->first - base) / 8] = it->second;
        out.putU64(pageno);
        out.putBytes(blob, pageBlob);
    }
}

void
MemImage::checkpointRestore(ckpt::Section &in)
{
    std::uint64_t capacity = in.getU64();
    if (capacity != capacity_)
        throw ckpt::Error("memory image capacity mismatch");
    correctedTotal_ = in.getU64();
    uncorrectableTotal_ = in.getU64();

    clear();
    std::uint64_t count = in.getU64();
    std::uint8_t blob[pageBlob];
    const std::uint8_t *const check = blob + pageSize;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t pageno = in.getU64();
        if (pageno >= numPages_)
            throw ckpt::Error("memory image page past capacity");
        if (slot(pageno))
            throw ckpt::Error("memory image page given twice");
        in.getBytes(blob, pageBlob);
        std::memcpy(newPage(pageno), blob, pageSize);
        // Only a check byte that disagrees with its word is a fault.
        for (std::size_t w = 0; w < pageSize / 8; ++w)
            if (check[w] != ras::eccEncode(loadWord(blob + 8 * w)))
                faults_.emplace(pageno * pageSize + 8 * w, check[w]);
    }
}

} // namespace contutto::mem
