#include "trace/writer.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "sim/logging.hh"

namespace contutto::trace
{

/**
 * Remaining bytes a writer may land before the injected disk
 * failure fires; negative disables injection. Test-only.
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

TraceWriter::TraceWriter(std::string path)
    : TraceWriter(std::move(path), Options{})
{}

TraceWriter::TraceWriter(std::string path, const Options &options)
    : path_(std::move(path)), tmpPath_(path_ + ".tmp"),
      options_(options)
{
    ct_assert(options_.bufferBytes >= recordBytes);
    fd_ = ::open(tmpPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                 0644);
    if (fd_ < 0)
        throw Error(ErrorCode::ioError, "cannot open '" + tmpPath_
                                            + "' for writing");
    buf_.reserve(options_.bufferBytes);
    std::uint8_t header[headerBytes];
    encodeHeader(header);
    buf_.insert(buf_.end(), header, header + headerBytes);
    sum_.update(header, headerBytes);
}

TraceWriter::~TraceWriter()
{
    // Never auto-commit: an unclosed writer means the capture did
    // not finish, and a partial trace must not become visible.
    abort();
}

void
TraceWriter::append(const Record &rec)
{
    ct_assert(!closed_ && fd_ >= 0);
    std::uint8_t raw[recordBytes];
    encodeRecord(rec, raw);
    if (buf_.size() + recordBytes > options_.bufferBytes)
        flushBuffer();
    buf_.insert(buf_.end(), raw, raw + recordBytes);
    sum_.update(raw, recordBytes);
    ++recordCount_;
}

void
TraceWriter::flushBuffer()
{
    if (buf_.empty())
        return;
    writeRaw(buf_.data(), buf_.size());
    buf_.clear();
}

void
TraceWriter::writeRaw(const std::uint8_t *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        std::size_t want = len - off;
        if (testShortWriteBudget >= 0) {
            // Fault injection: the disk fills up after
            // testShortWriteBudget more bytes.
            if (std::size_t(testShortWriteBudget) < want)
                want = std::size_t(testShortWriteBudget);
            testShortWriteBudget -= long(want);
        }
        ssize_t n =
            want == 0 ? -1 : ::write(fd_, data + off, want);
        if (n <= 0)
            fail(ErrorCode::shortWrite,
                 "write to '" + tmpPath_ + "' failed at record "
                     + std::to_string(recordCount_));
        off += std::size_t(n);
    }
}

void
TraceWriter::fail(ErrorCode code, const std::string &what)
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    ::unlink(tmpPath_.c_str());
    closed_ = true;
    throw Error(code, what);
}

void
TraceWriter::close()
{
    ct_assert(!closed_ && fd_ >= 0);
    // The checksum covers the recordCount field too, so the footer
    // folds its first half before emitting its second.
    std::uint8_t footer[footerBytes];
    encodeFooter(recordCount_, 0, footer);
    sum_.update(footer, sizeof(recordCount_));
    encodeFooter(recordCount_, sum_.value(), footer);
    if (buf_.size() + footerBytes > options_.bufferBytes)
        flushBuffer();
    buf_.insert(buf_.end(), footer, footer + footerBytes);
    flushBuffer();

    if (::fsync(fd_) != 0)
        fail(ErrorCode::ioError,
             "fsync of '" + tmpPath_ + "' failed");
    ::close(fd_);
    fd_ = -1;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        ::unlink(tmpPath_.c_str());
        closed_ = true;
        throw Error(ErrorCode::ioError,
                    "rename '" + tmpPath_ + "' -> '" + path_
                        + "' failed");
    }
    // Make the rename itself durable (see ckpt::writeFile); an
    // unsyncable parent degrades the guarantee, not the close.
    std::string dir = path_;
    std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
    closed_ = true;
}

void
TraceWriter::abort()
{
    if (closed_)
        return;
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    ::unlink(tmpPath_.c_str());
    closed_ = true;
}

} // namespace contutto::trace
