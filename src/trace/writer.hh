/**
 * @file
 * Buffered, crash-safe binary trace writer.
 *
 * Records accumulate in a fixed in-memory buffer (1 MiB by default,
 * the cwsnow1 sim_trace idiom) and flush to a `path + ".tmp"` side
 * file; close() appends the footer, fsyncs the temp file, renames
 * it onto the final path and fsyncs the parent directory — the same
 * discipline as ckpt::Checkpoint::writeFile, for the same reason: a
 * crash mid-capture must never leave a half-written file at the
 * final path, and a half-written temp file can never pass the
 * decoder's checksum. Anything short of a durably landed byte
 * raises trace::Error(shortWrite) and removes the temp file.
 *
 * One writer per capturing shard; writers are not thread-safe (each
 * shard appends only to its own), and trace::mergeShards stitches
 * the shard files back into one time-ordered trace.
 */

#ifndef CONTUTTO_TRACE_WRITER_HH
#define CONTUTTO_TRACE_WRITER_HH

#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "trace/format.hh"

namespace contutto::trace
{

namespace testing
{
/**
 * Fault injection for TraceWriter: the next writer may land at most
 * @p bytes before the (simulated) disk fails, so the atomicity
 * contract — a short write raises Error and never installs a file
 * at the final path — is testable. Negative disables injection
 * (the default). Not thread-safe; test-only.
 */
void setShortWriteBudget(long bytes);
} // namespace testing

/** Writes one binary trace file; see the file comment. */
class TraceWriter
{
  public:
    struct Options
    {
        /** In-memory buffer size; flushes when full. */
        std::size_t bufferBytes = 1024 * 1024;
        /** Default threadId stamped by the delta-computing append
         *  helpers in capture.hh (raw append() keeps the record's
         *  own). */
        std::uint16_t threadId = 0;
    };

    /** Opens `path + ".tmp"`; @throw Error(ioError) on failure. */
    TraceWriter(std::string path, const Options &options);
    explicit TraceWriter(std::string path);

    /** Discards the temp file when close() was never reached. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record; @throw Error(shortWrite/ioError) when a
     *  buffer flush cannot land its bytes. */
    void append(const Record &rec);

    /**
     * Seal the trace: flush, footer, fsync, atomic rename onto the
     * final path, fsync the parent directory. @throw Error and
     * remove the temp file on any failure — the final path is
     * either the complete valid trace or untouched.
     */
    void close();

    /** Drop everything written so far; the temp file is removed
     *  and the final path untouched. Idempotent. */
    void abort();

    bool closed() const { return closed_; }
    std::uint64_t recordCount() const { return recordCount_; }
    /** The footer checksum; meaningful once closed. */
    std::uint64_t checksum() const { return sum_.value(); }
    const std::string &path() const { return path_; }
    std::uint16_t threadId() const { return options_.threadId; }

  private:
    void flushBuffer();
    void writeRaw(const std::uint8_t *data, std::size_t len);
    void fail(ErrorCode code, const std::string &what);

    std::string path_;
    std::string tmpPath_;
    Options options_;
    int fd_ = -1;
    std::vector<std::uint8_t> buf_;
    std::uint64_t recordCount_ = 0;
    ckpt::WordSum sum_; ///< running sum of the file's bytes
    bool closed_ = false;
};

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_WRITER_HH
