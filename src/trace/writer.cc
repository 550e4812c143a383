#include "trace/writer.hh"

#include "sim/logging.hh"

namespace contutto::trace
{

namespace
{

/** The temp file of @p path, its open failure reported as a trace
 *  Error(ioError). */
ckpt::AtomicFile
openTemp(const std::string &path)
{
    try {
        return ckpt::AtomicFile(path);
    } catch (const ckpt::Error &e) {
        throw Error(ErrorCode::ioError, e.what());
    }
}

} // namespace

TraceWriter::TraceWriter(std::string path)
    : TraceWriter(std::move(path), Options{})
{}

TraceWriter::TraceWriter(std::string path, const Options &options)
    : path_(std::move(path)), options_(options), file_(openTemp(path_))
{
    buf_.reserve(bufferBytes);
    std::uint8_t header[headerBytes];
    encodeHeader(header);
    buf_.insert(buf_.end(), header, header + headerBytes);
    sum_.update(header, headerBytes);
}

void
TraceWriter::append(const Record &rec)
{
    ct_assert(!closed_);
    std::uint8_t raw[recordBytes];
    encodeRecord(rec, raw);
    if (buf_.size() + recordBytes > bufferBytes)
        flushBuffer();
    buf_.insert(buf_.end(), raw, raw + recordBytes);
    sum_.update(raw, recordBytes);
    ++recordCount_;
}

void
TraceWriter::flushBuffer()
{
    try {
        file_.write(buf_.data(), buf_.size());
    } catch (const ckpt::Error &e) {
        closed_ = true;
        throw Error(ErrorCode::shortWrite,
                    std::string(e.what()) + " at record "
                        + std::to_string(recordCount_));
    }
    buf_.clear();
}

void
TraceWriter::close()
{
    ct_assert(!closed_);
    // The checksum covers the recordCount field too, so the footer
    // folds its first half before emitting its second.
    std::uint8_t footer[footerBytes];
    encodeFooter(recordCount_, 0, footer);
    sum_.update(footer, sizeof(recordCount_));
    encodeFooter(recordCount_, sum_.value(), footer);
    if (buf_.size() + footerBytes > bufferBytes)
        flushBuffer();
    buf_.insert(buf_.end(), footer, footer + footerBytes);
    flushBuffer();
    closed_ = true;
    try {
        file_.commit();
    } catch (const ckpt::Error &e) {
        throw Error(ErrorCode::ioError, e.what());
    }
}

void
TraceWriter::abort()
{
    file_.discard();
    closed_ = true;
}

} // namespace contutto::trace
