/**
 * @file
 * mmap-backed trace decoder/validator.
 *
 * MappedTrace maps the whole file read-only and validates structure
 * (magic, version, byte length, record count, end-to-end WordSum)
 * before a single record is surfaced, so downstream code can stream
 * records straight out of the page cache with zero copies — the
 * layer the replay path's millions-of-ops-per-second figure rests
 * on. Record payload validation (op range, size cap, reserved bytes)
 * happens per record on decode; validateAll() forces it over the
 * whole file for the `trace_tool validate` verb.
 */

#ifndef CONTUTTO_TRACE_READER_HH
#define CONTUTTO_TRACE_READER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace contutto::trace
{

/** A validated, memory-mapped, read-only trace file. */
class MappedTrace
{
  public:
    /**
     * Map and validate @p path.
     * @throw Error with the matching ErrorCode on any structural
     *        problem; after the constructor returns, the header,
     *        length, footer and checksum are all known-good.
     */
    explicit MappedTrace(const std::string &path);

    ~MappedTrace();

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    std::uint64_t recordCount() const { return recordCount_; }
    /** The validated footer checksum — the trace's identity; the
     *  campaign layer folds it into memo config hashes. */
    std::uint64_t checksum() const { return checksum_; }
    const std::string &path() const { return path_; }
    std::size_t fileBytes() const { return len_; }
    /** The mapped file, fileBytes() long. */
    const std::uint8_t *data() const { return map_; }

    /** Decode record @p i (0-based). @throw Error(badRecord). */
    Record
    record(std::uint64_t i) const
    {
        return decodeRecord(recordBase_ + i * recordBytes);
    }

    /** Decode every record; @throw Error(badRecord) on the first
     *  invalid payload. Returns the total of all tickDeltas (the
     *  trace's time span) so callers get a useful summary. */
    Tick validateAll() const;

  private:
    std::string path_;
    const std::uint8_t *map_ = nullptr;
    std::size_t len_ = 0;
    const std::uint8_t *recordBase_ = nullptr;
    std::uint64_t recordCount_ = 0;
    std::uint64_t checksum_ = 0;
};

/**
 * k-way merge of per-shard trace files into one time-ordered trace
 * at @p outPath. Records are ordered by absolute tick, ties broken
 * by (threadId, input order) so the merge is deterministic. Deltas
 * are recomputed against the merged order.
 * @return the merged record count.
 * @throw Error if any input fails validation or the output cannot
 *        be written.
 */
std::uint64_t mergeShards(const std::vector<std::string> &shardPaths,
                          const std::string &outPath);

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_READER_HH
