#include "sim/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "sim/stats.hh"

namespace contutto::ckpt
{

/**
 * Remaining bytes AtomicFile may write before the injected disk
 * failure fires; negative disables injection. Test-only (see
 * testing::setShortWriteBudget) — campaign code never touches it.
 */
static long testShortWriteBudget = -1;

namespace testing
{

void
setShortWriteBudget(long bytes)
{
    testShortWriteBudget = bytes;
}

} // namespace testing

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

/** One WordSum step (see checkpoint.hh). */
inline std::uint64_t
wordStep(std::uint64_t h, std::uint64_t w)
{
    h ^= w;
    h *= 0x100000001b3ull;
    return h ^ (h >> 29);
}

/** The little-endian word at @p p; GCC folds it into one load. */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    return std::uint64_t(p[0]) | std::uint64_t(p[1]) << 8
         | std::uint64_t(p[2]) << 16 | std::uint64_t(p[3]) << 24
         | std::uint64_t(p[4]) << 32 | std::uint64_t(p[5]) << 40
         | std::uint64_t(p[6]) << 48 | std::uint64_t(p[7]) << 56;
}

} // namespace

WordSum &
WordSum::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    length_ += len;
    while (tailBytes_ != 0 && len != 0) {
        tail_ |= std::uint64_t(*p++) << (8 * tailBytes_);
        --len;
        if (++tailBytes_ == 8) {
            h_ = wordStep(h_, tail_);
            tail_ = 0;
            tailBytes_ = 0;
        }
    }
    std::uint64_t h = h_;
    for (; len >= 8; len -= 8, p += 8)
        h = wordStep(h, loadLe64(p));
    h_ = h;
    for (; len != 0; --len)
        tail_ |= std::uint64_t(*p++) << (8 * tailBytes_++);
    return *this;
}

std::uint64_t
WordSum::value() const
{
    std::uint64_t h = h_;
    if (tailBytes_ != 0)
        h = wordStep(h, tail_);
    return wordStep(h, length_);
}

std::uint64_t
WordSum::of(const void *data, std::size_t len)
{
    return WordSum().update(data, len).value();
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmpPath_(path_ + ".tmp")
{
    fd_ = ::open(tmpPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                 0644);
    if (fd_ < 0)
        throw Error("cannot open '" + tmpPath_ + "' for writing");
}

void
AtomicFile::write(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t off = 0;
    while (off < len) {
        std::size_t want = len - off;
        if (testShortWriteBudget >= 0) {
            // Fault injection: pretend the disk filled up after
            // testShortWriteBudget more bytes.
            if (std::size_t(testShortWriteBudget) < want)
                want = std::size_t(testShortWriteBudget);
            testShortWriteBudget -= long(want);
        }
        ssize_t n = want == 0 ? -1 : ::write(fd_, p + off, want);
        if (n <= 0)
            fail("write to '" + tmpPath_ + "' failed");
        off += std::size_t(n);
    }
}

void
AtomicFile::commit()
{
    if (::fsync(fd_) != 0)
        fail("fsync of '" + tmpPath_ + "' failed");
    ::close(fd_);
    fd_ = -1;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        ::unlink(tmpPath_.c_str());
        throw Error("rename '" + tmpPath_ + "' -> '" + path_
                    + "' failed");
    }
    // A missing or unsyncable parent (e.g. on an exotic filesystem)
    // degrades to the guarantee without this fsync rather than
    // failing the save.
    std::size_t slash = path_.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
}

void
AtomicFile::discard()
{
    if (fd_ < 0)
        return;
    ::close(fd_);
    fd_ = -1;
    ::unlink(tmpPath_.c_str());
}

void
AtomicFile::fail(const std::string &what)
{
    discard();
    throw Error(what);
}

namespace
{

constexpr char kMagic[8] = {'C', 'T', 'C', 'K', 'P', 'T', '1', '\n'};

// Grow, then copy: GCC 12 at -O3 misreads a range insert of a
// scalar's bytes as an out-of-bounds memcpy (-Warray-bounds).
template <typename T>
void
appendScalar(std::vector<std::uint8_t> &out, T v)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof(v));
    std::memcpy(out.data() + at, &v, sizeof(v));
}

void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    appendScalar(out, v);
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    appendScalar(out, v);
}

/** Bounds-checked cursor over a raw checkpoint image. */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &buf) : buf_(buf)
    {}

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        raw(&v, sizeof(v));
        return v;
    }

    void
    raw(void *out, std::size_t len)
    {
        if (buf_.size() - pos_ < len)
            throw Error("checkpoint file truncated");
        std::memcpy(out, buf_.data() + pos_, len);
        pos_ += len;
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    const std::vector<std::uint8_t> &buf_;
    std::size_t pos_ = 0;
};

} // namespace

Section &
Checkpoint::add(const std::string &name)
{
    for (const Section &s : sections_)
        if (s.name() == name)
            throw Error("duplicate checkpoint section '" + name
                        + "'");
    sections_.emplace_back(name);
    return sections_.back();
}

Section &
Checkpoint::section(const std::string &name)
{
    for (Section &s : sections_)
        if (s.name() == name)
            return s;
    throw Error("checkpoint has no section '" + name + "'");
}

bool
Checkpoint::has(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name() == name)
            return true;
    return false;
}

Checkpoint
Checkpoint::deserialize(const std::vector<std::uint8_t> &raw)
{
    if (raw.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t)
                         + sizeof(std::uint64_t))
        throw Error("checkpoint file too short");

    // Identity and version first, so a file of another version is
    // refused as such; then the whole-file checksum, after which
    // everything is trusted to be at least the bytes that were
    // written.
    Reader rd(raw);
    char magic[sizeof(kMagic)];
    rd.raw(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw Error("not a checkpoint file (bad magic)");
    std::uint32_t version = rd.u32();
    if (version != formatVersion)
        throw VersionError("unsupported checkpoint format version "
                    + std::to_string(version) + " (expected "
                    + std::to_string(formatVersion) + ")");

    std::uint64_t stored;
    std::memcpy(&stored,
                raw.data() + raw.size() - sizeof(std::uint64_t),
                sizeof(stored));
    if (WordSum::of(raw.data(), raw.size() - sizeof(std::uint64_t))
        != stored)
        throw Error("checkpoint file checksum mismatch (corrupt)");

    Checkpoint ck;
    std::uint32_t count = rd.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t nameLen = rd.u32();
        if (rd.remaining() < nameLen)
            throw Error("checkpoint file truncated");
        std::string name(nameLen, '\0');
        rd.raw(name.data(), nameLen);
        std::uint64_t payloadLen = rd.u64();
        std::uint64_t payloadSum = rd.u64();
        if (rd.remaining() < payloadLen + sizeof(std::uint64_t))
            throw Error("checkpoint file truncated");
        std::vector<std::uint8_t> payload(payloadLen);
        rd.raw(payload.data(), payloadLen);
        if (WordSum::of(payload.data(), payload.size()) != payloadSum)
            throw Error("checkpoint section '" + name
                        + "' checksum mismatch (corrupt)");
        ck.add(name).setBytes(std::move(payload));
    }
    if (rd.remaining() != sizeof(std::uint64_t))
        throw Error("checkpoint file has trailing garbage");
    return ck;
}

void
Checkpoint::writeFile(const std::string &path) const
{
    AtomicFile file(path);
    WordSum fileSum;
    auto put = [&](const void *data, std::size_t len) {
        file.write(data, len);
        fileSum.update(data, len);
    };
    // Each section's framing is gathered into one small buffer and
    // its payload written straight from the section, so the file
    // costs two writes per section and no copy of the payloads.
    std::vector<std::uint8_t> head(kMagic, kMagic + sizeof(kMagic));
    appendU32(head, formatVersion);
    appendU32(head, std::uint32_t(sections_.size()));
    put(head.data(), head.size());
    for (const Section &s : sections_) {
        const std::vector<std::uint8_t> &payload = s.bytes();
        head.clear();
        appendU32(head, std::uint32_t(s.name().size()));
        head.insert(head.end(), s.name().begin(), s.name().end());
        appendU64(head, payload.size());
        appendU64(head, WordSum::of(payload.data(), payload.size()));
        put(head.data(), head.size());
        put(payload.data(), payload.size());
    }
    const std::uint64_t sum = fileSum.value();
    file.write(&sum, sizeof(sum));
    file.commit();
}

Checkpoint
Checkpoint::readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        throw Error("cannot open checkpoint '" + path + "'");
    auto size = is.tellg();
    is.seekg(0);
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char *>(raw.data()),
            std::streamsize(raw.size()));
    if (!is)
        throw Error("read of checkpoint '" + path + "' failed");
    return deserialize(raw);
}

namespace
{

enum StatKind : std::uint8_t
{
    kScalar = 0,
    kValue = 1,
    kDistribution = 2,
    kHistogram = 3,
};

/** Visit every stat in @p g's subtree in registration order, with
 *  its '.'-joined path relative to the root. */
void
forEachStat(const stats::StatGroup &g, const std::string &prefix,
            const std::function<void(const std::string &,
                                     stats::StatBase &)> &fn)
{
    for (stats::StatBase *s : g.ownStats())
        fn(prefix + s->name(), *s);
    for (const stats::StatGroup *c : g.children())
        forEachStat(*c, prefix + c->groupName() + ".", fn);
}

} // namespace

void
saveStats(const stats::StatGroup &root, Section &out)
{
    std::uint32_t n = 0;
    forEachStat(root, "",
                [&](const std::string &, stats::StatBase &) { ++n; });
    out.putU32(n);
    forEachStat(root, "", [&](const std::string &path,
                              stats::StatBase &s) {
        out.putStr(path);
        if (auto *sc = dynamic_cast<stats::Scalar *>(&s)) {
            out.putU8(kScalar);
            out.putF64(sc->value());
        } else if (dynamic_cast<stats::Value *>(&s) != nullptr) {
            // Presence-only: the backing model state is restored by
            // the owning Checkpointable.
            out.putU8(kValue);
        } else if (auto *d =
                       dynamic_cast<stats::Distribution *>(&s)) {
            out.putU8(kDistribution);
            stats::Distribution::Raw r = d->rawState();
            out.putU64(r.count);
            out.putF64(r.sum);
            out.putF64(r.runMean);
            out.putF64(r.m2);
            out.putF64(r.min);
            out.putF64(r.max);
        } else if (auto *h = dynamic_cast<stats::Histogram *>(&s)) {
            out.putU8(kHistogram);
            stats::Histogram::Raw r = h->rawState();
            out.putU32(std::uint32_t(r.buckets.size()));
            for (std::uint64_t b : r.buckets)
                out.putU64(b);
            out.putU64(r.count);
            out.putF64(r.sum);
            out.putF64(r.min);
            out.putF64(r.max);
        } else {
            throw Error("stat '" + path
                        + "' has an unknown kind; cannot checkpoint");
        }
    });
}

void
restoreStats(const stats::StatGroup &root, Section &in)
{
    std::uint32_t expected = in.getU32();
    std::uint32_t seen = 0;
    forEachStat(root, "", [&](const std::string &path,
                              stats::StatBase &s) {
        ++seen;
        std::string storedPath = in.getStr();
        if (storedPath != path)
            throw Error("stats tree mismatch: checkpoint has '"
                        + storedPath + "' where model has '" + path
                        + "'");
        std::uint8_t kind = in.getU8();
        if (auto *sc = dynamic_cast<stats::Scalar *>(&s)) {
            if (kind != kScalar)
                throw Error("stat '" + path + "' kind mismatch");
            *sc = in.getF64();
        } else if (dynamic_cast<stats::Value *>(&s) != nullptr) {
            if (kind != kValue)
                throw Error("stat '" + path + "' kind mismatch");
        } else if (auto *d =
                       dynamic_cast<stats::Distribution *>(&s)) {
            if (kind != kDistribution)
                throw Error("stat '" + path + "' kind mismatch");
            stats::Distribution::Raw r;
            r.count = in.getU64();
            r.sum = in.getF64();
            r.runMean = in.getF64();
            r.m2 = in.getF64();
            r.min = in.getF64();
            r.max = in.getF64();
            d->setRawState(r);
        } else if (auto *h = dynamic_cast<stats::Histogram *>(&s)) {
            if (kind != kHistogram)
                throw Error("stat '" + path + "' kind mismatch");
            stats::Histogram::Raw r;
            std::uint32_t nb = in.getU32();
            if (nb != h->numBuckets())
                throw Error("stat '" + path
                            + "' bucket count mismatch");
            r.buckets.resize(nb);
            for (std::uint64_t &b : r.buckets)
                b = in.getU64();
            r.count = in.getU64();
            r.sum = in.getF64();
            r.min = in.getF64();
            r.max = in.getF64();
            h->setRawState(r);
        } else {
            throw Error("stat '" + path
                        + "' has an unknown kind; cannot restore");
        }
    });
    if (seen != expected)
        throw Error(
            "stats tree mismatch: checkpoint has "
            + std::to_string(expected) + " stats, model has "
            + std::to_string(seen));
}

} // namespace contutto::ckpt
