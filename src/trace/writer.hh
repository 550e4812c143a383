/**
 * @file
 * Buffered, crash-safe binary trace writer.
 *
 * Records accumulate in a 1 MiB in-memory buffer (the cwsnow1
 * sim_trace idiom); each full buffer goes to a ckpt::AtomicFile,
 * the writer checkpoints use too. close() appends the footer and
 * commits the file: a crash mid-capture never leaves a half-written
 * file at the final path, and a half-written temp file can never
 * pass the decoder's checksum. A write the disk does not take
 * raises trace::Error(shortWrite), any other I/O failure
 * Error(ioError), and both remove the temp file. Tests inject short
 * writes through ckpt::testing::setShortWriteBudget.
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

/** Writes one binary trace file; see the file comment. */
class TraceWriter
{
  public:
    /** In-memory buffer size; a full buffer is written out. */
    static constexpr std::size_t bufferBytes = 1024 * 1024;

    struct Options
    {
        /** Default threadId stamped by the delta-computing append
         *  helpers in capture.hh (raw append() keeps the record's
         *  own). */
        std::uint16_t threadId = 0;
    };

    /** Opens `path + ".tmp"`; @throw Error(ioError) on failure. */
    TraceWriter(std::string path, const Options &options);
    explicit TraceWriter(std::string path);

    /** Discards the temp file when close() was never reached. */
    ~TraceWriter() = default;

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

    std::string path_;
    Options options_;
    ckpt::AtomicFile file_;
    std::vector<std::uint8_t> buf_;
    std::uint64_t recordCount_ = 0;
    ckpt::WordSum sum_; ///< running sum of the file's bytes
    bool closed_ = false;
};

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_WRITER_HH
