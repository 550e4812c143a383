/**
 * @file
 * Versioned, checksummed binary snapshots of simulation state.
 *
 * A Checkpoint is a named bag of Sections; a Section is a flat byte
 * buffer written and read through fixed-width primitives. On disk the
 * format is
 *
 *   magic "CTCKPT1\n" | u32 version | u32 sectionCount
 *   per section: u32 nameLen | name | u64 payloadLen
 *                | u64 WordSum(payload) | payload
 *   u64 WordSum(everything above)
 *
 * so a truncated file, a flipped bit, or a section from a different
 * layout version is rejected at load time with a ckpt::Error — never
 * silently restored. Campaign drivers catch the error and fall back
 * to a cold start instead of resuming from garbage. The magic and
 * version are checked before the file sum, so a file of another
 * version is refused as such, not as corrupt.
 *
 * WordSum is the integrity sum of checkpoints (since format version
 * 4) and trace files (since version 2). It reads the input as
 * little-endian 64-bit words w and, from h = the FNV-1a offset
 * basis, applies
 *
 *   h ^= w;  h *= 0x100000001b3;  h ^= h >> 29
 *
 * then folds a zero-padded partial last word, if any, and the total
 * byte length the same way. Each step is a bijection of h for a fixed
 * word and maps different words to different states for a fixed h,
 * so a change confined to one 8-byte word always changes the sum, as
 * byte-wise FNV-1a guarantees for one byte, at one multiply per 8
 * bytes instead of per byte. The shift is what makes it a checksum:
 * without it the multiply never carries bit 63 downwards, so flipping
 * bit 63 of two different words cancels out. fnv1a stays for identity
 * hashes (config hashes, memo keys, fingerprints, sampler streams),
 * whose values are recorded outside any one file and must not move.
 *
 * State capture follows a three-phase protocol, keyed to the fact
 * that checkpoints are only taken at *quiescent boundaries* (no
 * command in flight, no one-shot work pending) where the only events
 * in the queue are periodic self-rearming ones (DRAM refresh) whose
 * owners know how to rebuild them:
 *
 *   save:    each Checkpointable serializes its logical state,
 *            including the absolute ticks of any events it keeps
 *            scheduled.
 *   drain:   on restore, each Checkpointable first *deschedules* its
 *            own events, leaving the queue empty.
 *   refill:  the queue's tick/order/counters are restored, then each
 *            Checkpointable re-arms its events at the recorded
 *            absolute ticks — in the same registry order the save
 *            walked, so insertion-order tie-breaks are reproduced
 *            exactly.
 *
 * The drain/refill order is deterministic by construction (a fixed
 * registry walk), which is what makes a resumed run bit-identical to
 * an uninterrupted one; tests/storage/test_checkpoint_resume.cc
 * enforces that on the full crash-campaign stack, stats-JSON byte
 * for byte.
 */

#ifndef CONTUTTO_SIM_CHECKPOINT_HH
#define CONTUTTO_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace contutto::stats
{
class StatGroup;
}

namespace contutto::ckpt
{

/** Raised on any malformed, corrupt, or mismatched checkpoint. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raised for a well-formed checkpoint of another format version:
 *  not corrupt, just not this build's to read. */
class VersionError : public Error
{
  public:
    using Error::Error;
};

/** FNV-1a over @p len bytes, continuing from @p seed: the identity
 *  hash (see the file comment). */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/**
 * Streaming integrity sum of trace and checkpoint files: FNV-1a
 * taken a 64-bit word at a time (see the file comment). Feed bytes
 * in any split with update(); value() is the same as of() over
 * their concatenation.
 */
class WordSum
{
  public:
    /** Fold @p len more bytes. */
    WordSum &update(const void *data, std::size_t len);

    /** The sum of every byte folded so far; the stream continues. */
    std::uint64_t value() const;

    /** One-shot sum of @p len bytes. */
    static std::uint64_t of(const void *data, std::size_t len);

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
    /** Bytes of the unfinished word, little-endian, and their
     *  count (0-7). */
    std::uint64_t tail_ = 0;
    unsigned tailBytes_ = 0;
    std::uint64_t length_ = 0;
};

namespace testing
{
/**
 * Fault injection for AtomicFile: the writes that follow may emit
 * at most @p bytes in total before the (simulated) disk fails, so
 * the atomicity contract of checkpoints and traces — a short write
 * raises an error and never replaces the file at the final path —
 * is testable. Negative disables injection (the default). Not
 * thread-safe; test-only.
 */
void setShortWriteBudget(long bytes);
} // namespace testing

/**
 * The one durable-file writer, shared by checkpoints and traces.
 * The caller's bytes go to `path + ".tmp"` as they are handed over,
 * with no buffer of its own. commit() fsyncs the temp file, renames
 * it onto the final path and fsyncs the parent directory: the first
 * fsync makes the data durable before the rename makes it visible
 * (without it a power cut can leave a renamed but empty file), the
 * second makes the rename itself durable. Any failure, and
 * destruction before commit(), unlinks the temp file and leaves the
 * final path untouched. Failures raise Error.
 */
class AtomicFile
{
  public:
    /** Opens `path + ".tmp"`; @throw Error when it cannot. */
    explicit AtomicFile(std::string path);
    ~AtomicFile() { discard(); }

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** Append @p len bytes; @throw Error, and drop the temp file,
     *  when the disk takes fewer. */
    void write(const void *data, std::size_t len);

    /** fsync, rename onto the final path, fsync the directory. */
    void commit();

    /** Drop the temp file unless committed; idempotent. */
    void discard();

  private:
    [[noreturn]] void fail(const std::string &what);

    std::string path_;
    std::string tmpPath_;
    int fd_ = -1; ///< open and uncommitted while >= 0
};

/**
 * One named chunk of checkpoint payload with a read cursor. Writers
 * append primitives; readers consume them back in the same order.
 * Reads past the end (layout drift between save and restore) throw
 * Error rather than returning junk.
 */
class Section
{
  public:
    explicit Section(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** @{ Append primitives (writer side). */
    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    putU32(std::uint32_t v)
    {
        putRaw(&v, sizeof(v));
    }

    void
    putU64(std::uint64_t v)
    {
        putRaw(&v, sizeof(v));
    }

    void
    putF64(double v)
    {
        putRaw(&v, sizeof(v));
    }

    void
    putStr(const std::string &s)
    {
        putU32(std::uint32_t(s.size()));
        putRaw(s.data(), s.size());
    }

    void
    putBytes(const void *data, std::size_t len)
    {
        putU64(len);
        putRaw(data, len);
    }
    /** @} */

    /** @{ Consume primitives (reader side, in write order). */
    std::uint8_t
    getU8()
    {
        std::uint8_t v;
        getRaw(&v, sizeof(v));
        return v;
    }

    std::uint32_t
    getU32()
    {
        std::uint32_t v;
        getRaw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    getU64()
    {
        std::uint64_t v;
        getRaw(&v, sizeof(v));
        return v;
    }

    double
    getF64()
    {
        double v;
        getRaw(&v, sizeof(v));
        return v;
    }

    std::string
    getStr()
    {
        std::uint32_t n = getU32();
        checkAvail(n);
        std::string s(reinterpret_cast<const char *>(buf_.data())
                          + cursor_,
                      n);
        cursor_ += n;
        return s;
    }

    /** Length-prefixed blob; @p len must match the stored length. */
    void
    getBytes(void *out, std::size_t len)
    {
        std::uint64_t stored = getU64();
        if (stored != len)
            throw Error("checkpoint section '" + name_
                        + "': blob length mismatch");
        getRaw(out, len);
    }

    /** Peek the length of the next length-prefixed blob. */
    std::uint64_t
    peekBytesLen()
    {
        checkAvail(sizeof(std::uint64_t));
        std::uint64_t n;
        std::memcpy(&n, buf_.data() + cursor_, sizeof(n));
        return n;
    }
    /** @} */

    std::size_t size() const { return buf_.size(); }
    std::size_t remaining() const { return buf_.size() - cursor_; }
    bool atEnd() const { return cursor_ == buf_.size(); }
    void rewind() { cursor_ = 0; }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    void
    setBytes(std::vector<std::uint8_t> raw)
    {
        buf_ = std::move(raw);
        cursor_ = 0;
    }

  private:
    void
    putRaw(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    void
    checkAvail(std::size_t len) const
    {
        if (buf_.size() - cursor_ < len)
            throw Error("checkpoint section '" + name_
                        + "': truncated (read past end)");
    }

    void
    getRaw(void *out, std::size_t len)
    {
        checkAvail(len);
        std::memcpy(out, buf_.data() + cursor_, len);
        cursor_ += len;
    }

    std::string name_;
    std::vector<std::uint8_t> buf_;
    std::size_t cursor_ = 0;
};

/** An ordered collection of sections with file (de)serialization. */
class Checkpoint
{
  public:
    static constexpr std::uint32_t formatVersion = 5;

    /** Append a new section; names must be unique. */
    Section &add(const std::string &name);

    /** Look up a section for reading; throws Error when absent. */
    Section &section(const std::string &name);

    bool has(const std::string &name) const;

    std::size_t numSections() const { return sections_.size(); }

    /** Stream every section to @p path through an AtomicFile;
     *  builds no whole-file image. */
    void writeFile(const std::string &path) const;

    /** Parse and fully validate @p path; throws Error on anything
     *  short of a pristine checkpoint. */
    static Checkpoint readFile(const std::string &path);

    /** Parse a whole file image (readFile's parser); a file of
     *  another format version raises VersionError. */
    static Checkpoint deserialize(const std::vector<std::uint8_t> &);

  private:
    std::vector<Section> sections_;
};

/**
 * Anything whose state can be captured into / rebuilt from a
 * checkpoint section. Implementations must be symmetric: restore
 * consumes exactly what save produced, in order.
 */
class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;

    /** Serialize logical state, including absolute ticks of any
     *  events this object keeps scheduled. */
    virtual void checkpointSave(Section &out) const = 0;

    /** Phase 1 of restore: deschedule this object's events so the
     *  event queue can be rewound. Default: owns no events. */
    virtual void checkpointDrain() {}

    /** Phase 2 of restore: rebuild state and re-arm events at the
     *  recorded ticks (the queue's clock is already restored). */
    virtual void checkpointRestore(Section &in) = 0;
};

/**
 * @{ Whole-stats-tree capture. Stats are stored as a flat list of
 * (path, kind, payload) records, path being group names joined with
 * '.' from @p root (exclusive) down to the stat. Restore walks the
 * live tree in the same order and requires an exact structural
 * match — a checkpoint from a different model layout is an Error,
 * not a partial restore. stats::Value entries are recorded as
 * presence-only: their source of truth is model state restored by
 * the owning Checkpointable.
 */
void saveStats(const stats::StatGroup &root, Section &out);
void restoreStats(const stats::StatGroup &root, Section &in);
/** @} */

} // namespace contutto::ckpt

#endif // CONTUTTO_SIM_CHECKPOINT_HH
